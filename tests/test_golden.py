"""Stdout of the symbolic commands on the bundled file, pinned byte for byte
by the golden files the benchmark judges against (read, never written)."""

from __future__ import annotations

from pathlib import Path

import pytest

from nlseverify.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("verify",), "verify.tsv"),
        (("associate",), "associate.tsv"),
        (("reduce",), "reduce.tsv"),
        (("--printed-variants", "verify"), "verify_printed.tsv"),
    ],
    ids=["verify", "associate", "reduce", "printed-verify"],
)
def test_stdout_matches_the_golden_file(capsys, argv, golden):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert code == (2 if "--printed-variants" in argv else 0)


def test_printed_reduce_stdout_is_pinned(capsys):
    """All five records of the printed ``reduce``, the pushed-forward t2
    density and flux included; the benchmark's golden set judges only
    their verdicts."""
    code = main(["--printed-variants", "reduce"])
    out = capsys.readouterr().out
    expected = Path(__file__).resolve().parent / "golden" / "reduce_printed.tsv"
    assert out == expected.read_text(encoding="utf-8")
    assert code == 2
