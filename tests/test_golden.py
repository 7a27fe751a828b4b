"""Stdout of the commands on the bundled file, pinned byte for byte: the
symbolic commands by the golden files the benchmark judges against, and
``classify`` and ``simulate`` (with its ``--csv-out`` series) by the files
in ``tests/golden`` (all read, never written)."""

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


@pytest.mark.parametrize("init", ["plane-wave", "case1-exact", "random"])
def test_simulate_output_is_pinned(capsys, tmp_path, init):
    """Stdout and the sampled series of a short run of each initial-data
    family, byte for byte: the integrator's arithmetic must not move."""
    csv_path = tmp_path / "series.csv"
    code = main(["simulate", "--init", init, "--T", "0.1", "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    pinned = Path(__file__).resolve().parent / "golden"
    assert out == (pinned / f"simulate_{init}.tsv").read_text(encoding="utf-8")
    assert csv_path.read_bytes() == (pinned / f"simulate_{init}.csv").read_bytes()
    assert code == (0 if init == "plane-wave" else 2)


def test_classify_stdout_is_pinned(capsys):
    """Verdicts and the residual column at the default seed, byte for byte."""
    code = main(["classify"])
    out = capsys.readouterr().out
    expected = Path(__file__).resolve().parent / "golden" / "classify.tsv"
    assert out == expected.read_text(encoding="utf-8")
    assert code == 0


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--seed", "1", "classify"), "classify_seed1.tsv"),
        (("--seed", "2", "classify"), "classify_seed2.tsv"),
        (("--seed", "11", "classify"), "classify_seed11.tsv"),
        (("--seed", "7", "classify", "--case", "case3"), "classify_seed7_case3.tsv"),
    ],
    ids=["seed1", "seed2", "seed11", "seed7-case3"],
)
def test_classify_stdout_is_pinned_at_other_seeds(capsys, argv, golden):
    """The same at three other seeds, and for one case alone."""
    code = main(list(argv))
    out = capsys.readouterr().out
    expected = Path(__file__).resolve().parent / "golden" / golden
    assert out == expected.read_text(encoding="utf-8")
    assert code == 0
