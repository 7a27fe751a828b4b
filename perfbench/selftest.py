#!/usr/bin/env python3
"""Checks of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

* Two traced runs with the same seed give identical ``*_calls`` counters and
  ``jets.prolong_distinct_ratio`` on every workload.
* Every run prints exactly the metric names that BENCHMARK.json declares.
* The oracle rejects a wrong verdict and a changed residual string.
* The tracer rebinds every copy of a wrapped function and restores them all.
* Without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counters_repeat() -> None:
    names = [m["name"] for m in SPEC["per_layer"]]
    exact = [n for n in names if n.endswith("_calls")] + ["jets.prolong_distinct_ratio"]
    for w in SPEC["workloads"]:
        first, second = (result(bench(w["name"], 11, 1)) for _ in range(2))
        assert list(first["metrics"]) == names, f"{w['name']}: per-layer names differ"
        for n in exact:
            a, b = first["metrics"][n]["value"], second["metrics"][n]["value"]
            assert a == b, f"{w['name']}: {n} is {a} then {b}"
        print(f"ok  {w['name']}: {len(exact)} exact counters repeat")


def check_end_to_end_names() -> None:
    names = [m["name"] for m in SPEC["end_to_end"]]
    for w in SPEC["workloads"]:
        res = result(bench(w["name"], 3, 0))
        assert list(res["metrics"]) == names, f"{w['name']}: end-to-end names differ"
        assert res["correct"], f"{w['name']}: wrong answers"
        for n, m in res["metrics"].items():
            assert m["value"] > 0, f"{w['name']}: {n} is not positive"
    print("ok  end-to-end metric names on every workload")


def check_oracle_rejects() -> None:
    sys.path.insert(0, str(HERE))
    import oracle

    good = oracle.golden_text("associate.tsv")
    assert oracle.ASSOCIATE.judge(0, good) is None
    flipped = good.replace("\tassociated\t", "\tnot-associated\t", 1)
    assert "verdicts differ" in oracle.ASSOCIATE.judge(0, flipped)
    edited = good.replace("1/2*v^2", "1/2*v^3", 1)
    assert edited != good and "golden" in oracle.ASSOCIATE.judge(0, edited)
    assert "exit" in oracle.ASSOCIATE.judge(2, good)
    assert oracle.judge_reduce_printed(1, "") is None
    assert oracle.judge_reduce_printed(0, oracle.golden_text("reduce.tsv")) is not None
    print("ok  oracle rejects wrong verdicts, residuals and exit codes")


def check_tracer_rebinds() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import layertrace
    import nlseverify.cli  # noqa: F401  (loads every layer module)

    modules = {n: m for n, m in sys.modules.items() if n.startswith("nlseverify")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for modname, attr, _ in layertrace.TARGETS:
            if "." in attr:
                continue
            original = before[(modname, attr)]
            left = [n for n, m in modules.items() if any(v is original for v in vars(m).values())]
            assert not left, f"{modname}.{attr} still unwrapped in {left}"
        for copy in ("nlseverify.jets", "nlseverify.cli", "nlseverify.reduction"):
            assert getattr(modules[copy], "normalize") is not before[("nlseverify.normal", "normalize")]
    finally:
        tracer.uninstall()
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items()), "tracer left wrappers behind"
    print("ok  tracer rebinds every copy and restores them")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("classify", 1, 0, Path(tmp))
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without sources"
    print("ok  exits non-zero without the program's sources")


def main() -> int:
    check_oracle_rejects()
    check_tracer_rebinds()
    check_fails_without_sources()
    check_end_to_end_names()
    check_counters_repeat()
    return 0


if __name__ == "__main__":
    sys.exit(main())
