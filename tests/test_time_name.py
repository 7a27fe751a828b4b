"""Time is the first declared independent, whatever its name."""

from __future__ import annotations

import re

from nlseverify.cli import main
from nlseverify.problem import bundled_problem_text

# a bare t (t, x1_xi_t, beta*t) or a t inside a jet word (u_t, u_xt)
_TIME = re.compile(r"(?<![A-Za-z0-9])t(?![A-Za-z0-9])|(?<=_)[tx]+(?![A-Za-z0-9])")


def respell(text: str) -> str:
    return _TIME.sub(lambda m: m.group(0).replace("t", "z"), text)


def respell_records(stdout: str) -> str:
    """Respell the check_id, subject and residual columns; anchors are fixed text."""
    lines = []
    for line in stdout.splitlines(keepends=True):
        cols = line.split("\t")
        for i in (0, 1, 3):
            cols[i] = respell(cols[i])
        lines.append("\t".join(cols))
    return "".join(lines)


def test_time_need_not_be_called_t(capsys, tmp_path):
    target = tmp_path / "sy.prob"
    target.write_text(
        "[independents]\ns\ny\n[dependents]\nu\n"
        "[equations]\ng1 = u_s + u_y\n[evolution]\nu_s = -u_y\n"
    )
    assert main(["--problem", str(target), "verify"]) == 0
    assert "error" not in capsys.readouterr().err


def test_bundled_file_with_t_spelled_z_verifies_the_same(capsys, tmp_path):
    renamed = respell(bundled_problem_text())
    assert "[independents]\nz\nx\n" in renamed
    assert "x1_xi_z = 1" in renamed and "gamma*u_xz)" in renamed and "t1_density" in renamed
    target = tmp_path / "z.prob"
    target.write_text(renamed)
    bundled_code = main(["verify"])
    bundled = capsys.readouterr().out
    code = main(["--problem", str(target), "verify"])
    out = capsys.readouterr().out
    assert bundled
    assert (code, out) == (bundled_code, respell_records(bundled))
