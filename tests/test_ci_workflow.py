"""The CI workflow runs the ROADMAP's tier-1 command verbatim with numpy
pinned to one minor version, then the benchmark's self-test.  Its Python
3.10 job installs pytest and hypothesis alone, runs the record, parser, problem-file, jet-calculus,
association, symmetry, normal-form, integer-route, conservation-law,
reduce-variant and time-name tests on the byte-compiled sources, then runs the exact commands and diffs their
stdout against the golden files, once under a random hash seed and once
under ``PYTHONHASHSEED=1``."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    jobs = workflow["jobs"]
    assert set(jobs) == {"tests", "exact-commands"}

    def runs(job: str) -> list[str]:
        return [step["run"] for step in jobs[job]["steps"] if "run" in step]

    def python(job: str) -> str:
        (version,) = [s["with"]["python-version"] for s in jobs[job]["steps"] if "with" in s]
        return version

    assert python("tests") == "3.11"
    assert runs("tests")[1:] == [command, "python perfbench/selftest.py"]
    install = runs("tests")[0].split()
    assert install[:4] == ["python", "-m", "pip", "install"]
    # the minor version the golden CSVs and byte-identity claims were made with
    assert '"numpy==2.4.*"' in install and "numpy" not in install
    assert {"sympy", "hypothesis", "pytest", "pyyaml"} <= set(install)
    assert python("exact-commands") == "3.10"
    compile_step, install_pytest, unit_tests, commands = runs("exact-commands")
    assert compile_step == "python -m compileall -q src"
    assert install_pytest == "python -m pip install pytest hypothesis"
    assert unit_tests == (
        "PYTHONPATH=src python -m pytest -q "
        "tests/test_value_semantics.py tests/test_parser.py tests/test_problem_file.py "
        "tests/test_jet_calculus.py tests/test_association.py tests/test_symmetries.py "
        "tests/test_normalize.py tests/test_integral_forms.py tests/test_conservation.py "
        "tests/test_reduce_variants.py tests/test_time_name.py"
    )
    assert "numpy" not in commands and "--printed-variants" in commands
    assert "/dev/null" not in commands
    diffs = re.findall(r"^\s*diff -u (\S+) (\S+)$", commands, re.M)
    assert diffs == [
        ('"perfbench/golden/$cmd.tsv"', '"$cmd.out"'),
        ("perfbench/golden/verify_printed.tsv", "verify_printed.out"),
        ("tests/golden/reduce_printed.tsv", "reduce_printed.out"),
    ]
    assert "for cmd in verify associate reduce; do" in commands
    # the whole diff loop runs twice: the hash seed must not move the stdout
    assert commands.startswith("for PYTHONHASHSEED in random 1; do\n  export PYTHONHASHSEED\n")
    assert commands.rstrip().endswith("\ndone") and commands.count("done") == 3
    for golden in ("verify", "associate", "reduce", "verify_printed"):
        assert (ROOT / "perfbench" / "golden" / f"{golden}.tsv").is_file()
