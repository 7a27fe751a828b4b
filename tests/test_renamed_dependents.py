"""The names of the dependents come from the problem file alone.

The bundled file with u, v spelled a, b everywhere (declarations, jets,
rules, _eta_ keys, candidate fields and labels) gives every command's
bundled stdout with the same spelling change in the check_id, subject,
residual and anchor columns, and the same exit code.
"""

from __future__ import annotations

import re

import pytest

from nlseverify.cli import main
from nlseverify.problem import bundled_problem_text

_DEP = re.compile(r"(?<![A-Za-z0-9])([uv])(?=_|(?![A-Za-z0-9]))")


def respell(text: str) -> str:
    return _DEP.sub(lambda m: {"u": "a", "v": "b"}[m.group(1)], text)


def respell_records(stdout: str) -> str:
    lines = []
    for line in stdout.splitlines(keepends=True):
        cols = line.split("\t")
        for i in (0, 1, 3, 4):
            cols[i] = respell(cols[i])
        lines.append("\t".join(cols))
    return "".join(lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("associate",),
        ("reduce",),
        ("classify",),
        ("simulate", "--T", "0.1"),
    ],
    ids=["verify", "associate", "reduce", "classify", "simulate"],
)
def test_renamed_file_gives_the_bundled_records(capsys, tmp_path, argv):
    renamed = respell(bundled_problem_text())
    assert "a_t = " in renamed and "x3_eta_b = a" in renamed
    target = tmp_path / "renamed.prob"
    target.write_text(renamed)
    bundled_code = main(list(argv))
    bundled = capsys.readouterr().out
    code = main(["--problem", str(target), *argv])
    out = capsys.readouterr().out
    assert bundled
    assert (code, out) == (bundled_code, respell_records(bundled))
