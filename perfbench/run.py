#!/usr/bin/env python3
"""Benchmark of the nlseverify command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one caller, closed loop.  Each operation is one warm in-process
``nlseverify.cli.main(argv)`` call with stdout and stderr captured, judged
against the expected outcomes in ``oracle.py``.  The commands of a workload
run interleaved, one round after another, until ``--seconds`` have passed.
The reference kernel of ``calibrate.py`` is timed between rounds, so every
timing can also be given in reference seconds, free of the machine's drift.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of ``layertrace.py``.  The lines
before it give every metric with its unit and sample count, the per-command
timings and the provenance of the run.  See README.md for the workloads and
for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

# numpy's thread pools read these when numpy is first imported, so they are
# set before anything imports it; one thread measures the program, not the
# scheduler of a small shared machine.  Set-up processes inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBLEM_FILE = SRC / "nlseverify" / "data" / "cubic_nlse.prob"

SETUP_REPEATS = 9


@dataclass(frozen=True)
class Command:
    metric: str  # name of its end-to-end timing
    argv: tuple[str, ...]
    judge: Callable[[int, str], "str | None"]


WORKLOADS = {
    "symbolic": (
        Command("verify_s", ("verify",), oracle.VERIFY.judge),
        Command("associate_s", ("associate",), oracle.ASSOCIATE.judge),
        Command("reduce_s", ("reduce",), oracle.REDUCE.judge),
        Command("verify_printed_s", ("--printed-variants", "verify"), oracle.VERIFY_PRINTED.judge),
        Command("reduce_printed_s", ("--printed-variants", "reduce"), oracle.judge_reduce_printed),
    ),
    "classify": (Command("classify_s", ("classify",), oracle.CLASSIFY.judge),),
    "simulate": (
        Command("simulate_n256_s", ("simulate",), oracle.SIMULATE.judge),
        Command("simulate_n65536_s", ("simulate", "--N", "65536", "--dt", "1e-8", "--T", "5e-7"),
                oracle.SIMULATE.judge),
    ),
}


def rounds(workload: str, commands, seed: int):
    """Endless rounds of (command, argv); the same seed gives the same rounds.

    The seed fixes the order of the commands in a round and, for
    ``classify``, the ``--seed`` of each operation.
    """
    rng = random.Random(seed)
    order = list(commands)
    rng.shuffle(order)
    while True:
        if workload == "classify":
            yield [(c, ("--seed", str(rng.randrange(1, 2**31))) + c.argv) for c in order]
        else:
            yield [(c, c.argv) for c in order]


# ---------------------------------------------------------------------------
# one operation and the closed loop


@dataclass
class Tally:
    samples: dict[str, list[float]]
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # finished, but with an answer that contradicts the oracle
    round_s: list[float] = field(default_factory=list)  # time in operations, per round
    kernel_s: list[float] = field(default_factory=list)  # reference kernel between rounds
    problems: dict[str, Counter] = field(default_factory=dict)

    def note(self, metric: str, what: str, times: int = 1) -> None:
        self.problems.setdefault(metric, Counter())[what] += times

    @property
    def rounds(self) -> int:
        return len(self.round_s)

    def op_seconds(self) -> float:
        return sum(self.round_s)

    def ref_scale(self) -> list[float]:
        """Per round, the factor that rescales its wall time to a machine on
        which the reference kernel takes ``REF_KERNEL_S``."""
        k = self.kernel_s
        return [2 * calibrate.REF_KERNEL_S / (k[i] + k[i + 1]) for i in range(self.rounds)]

    def ref_seconds(self) -> float:
        return sum(t * f for t, f in zip(self.round_s, self.ref_scale()))

    def merge_outcomes(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for metric, seen in other.problems.items():
            for what, times in seen.items():
                self.note(metric, what, times)


def run_op(cli, argv) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code or None if it raised, stdout, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the loop must go on; the op counts as failed
        elapsed = perf_counter() - t0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        text = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
        return elapsed, None, out.getvalue(), text
    return perf_counter() - t0, code, out.getvalue(), None


def measure(cli, plan, seconds: float, on_round=None) -> Tally:
    """Run whole rounds until ``seconds`` have passed (at least one round),
    timing the reference kernel before the first round and after each."""
    first = next(plan)
    tally = Tally({c.metric: [] for c, _ in first})
    start = perf_counter()
    tally.kernel_s.append(calibrate.kernel_s())
    batch = first
    while True:
        in_ops = 0.0
        for cmd, argv in batch:
            elapsed, code, stdout, raised = run_op(cli, argv)
            in_ops += elapsed
            tally.attempted += 1
            tally.samples[cmd.metric].append(elapsed)
            if raised is not None:
                tally.failed += 1
                tally.note(cmd.metric, f"raised {raised}")
                continue
            problem = cmd.judge(code, stdout)
            if problem is not None:
                tally.failed += 1
                tally.wrong += 1
                tally.note(cmd.metric, f"wrong: {problem}")
        tally.round_s.append(in_ops)
        tally.kernel_s.append(calibrate.kernel_s())
        if on_round is not None:
            on_round(tally.rounds)
        if perf_counter() - start >= seconds:
            break
        batch = next(plan)
    return tally


# ---------------------------------------------------------------------------
# set-up: fresh interpreters


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import nlseverify.cli
from nlseverify.problem import load_problem
for printed in {variants!r}:
    load_problem(printed=printed)
elapsed = time.perf_counter() - t0
print(nlseverify.cli.__file__)
print(repr(elapsed))
"""


def measure_setup(variants: tuple[bool, ...]) -> tuple[list[float], list[float]]:
    """Import plus problem load in fresh interpreters, as (wall seconds,
    reference seconds).  The first process is a warm-up that also leaves
    compiled bytecode behind; the reference kernel runs between processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(variants=variants)
    wall, ref = [], []
    kernel = calibrate.kernel_s()
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-s", "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        path, elapsed = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported nlseverify from {path}, not from {SRC}")
        after = calibrate.kernel_s()
        if i:
            wall.append(float(elapsed))
            ref.append(float(elapsed) * 2 * calibrate.REF_KERNEL_S / (kernel + after))
        kernel = after
    return wall, ref


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> dict[str, str]:
    """Data and unified cache sizes of cpu0, read-only from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out or {"unknown": "sysfs cache info unreadable"}


def provenance(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "problem_sha256": hashlib.sha256(PROBLEM_FILE.read_bytes()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# metrics


def timing(values: list[float]) -> dict:
    """Median, plus the highest of p90/p99 with at least ten samples beyond it."""
    out = {"value": statistics.median(values), "unit": "s", "samples": len(values)}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100)
            out[f"p{pct}"] = cuts[pct - 1]
            break
    return out


def end_to_end(tally: Tally, setup_wall: list[float], setup: list[float]) -> tuple[dict, dict]:
    """(metrics declared in BENCHMARK.json, every end-to-end metric with its
    sample count)."""
    correct = tally.attempted - tally.failed
    op_s, ref_s = tally.op_seconds(), tally.ref_seconds()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ref_ops_per_s": {"value": correct / ref_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    full = {
        "setup_s": dict(declared["setup_s"], samples=len(setup)),
        "setup_wall_s": timing(setup_wall),
        "ref_ops_per_s": dict(declared["ref_ops_per_s"], samples=tally.attempted,
                              base=f"{correct} correct ops in {ref_s:.3f} reference s"),
        "ops_per_s": {"value": correct / op_s, "unit": "1/s", "samples": tally.attempted,
                      "base": f"{correct} correct ops in {op_s:.3f} s"},
        "error_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio",
                        "samples": tally.attempted,
                        "base": f"{tally.failed} failed of {tally.attempted} attempted"},
        "peak_rss_mb": dict(declared["peak_rss_mb"], samples=1),
        "ref_kernel_s": timing(tally.kernel_s),
    }
    scale = tally.ref_scale()
    for metric, values in tally.samples.items():
        full[metric] = timing(values)
    for metric, values in tally.samples.items():
        full[metric[:-2] + "_ref_s"] = timing([t * f for t, f in zip(values, scale)])
    return declared, full


def per_layer(tracer, first_round: dict[str, int], traced: Tally, untraced: Tally) -> dict:
    """Counts over the first traced round; times per round over all of them.

    Times are self times, except ``problem.load_problem_s`` (a whole load,
    parse and system build included) and ``numerics.step_us_per_point``
    (a whole RK4 step over its grid points), in reference seconds.
    """
    own, inclusive = tracer.times()
    to_ref = traced.ref_seconds() / traced.op_seconds()
    own = {name: t * to_ref for name, t in own.items()}
    inclusive = {name: t * to_ref for name, t in inclusive.items()}

    def calls(name: str) -> int:
        return first_round[f"{name}_calls"]

    def per_round(name: str) -> float:
        return own[name] / traced.rounds

    norm_calls = calls("normal.normalize")
    prolongs = calls("jets.prolong")
    points = tracer.snapshot()["numerics.step_points"]
    overhead = (untraced.attempted / untraced.ref_seconds()) / (traced.attempted / traced.ref_seconds()) - 1.0
    values = {
        "problem.load_problem_s": (inclusive["problem.load_problem"] / traced.rounds, "s"),
        "parse.parse_calls": (calls("parse.parse"), "count"),
        "normal.normalize_calls": (norm_calls, "count"),
        "normal.normalize_s": (per_round("normal.normalize"), "s"),
        "normal.nodes_in": (first_round["normal.nodes_in"], "count"),
        "normal.terms_out": (first_round["normal.terms_out"], "count"),
        "normal.zero_ratio": (first_round["normal.zero_out"] / norm_calls if norm_calls else 0.0, "ratio"),
        "jets.total_derivative_calls": (calls("jets.total_derivative"), "count"),
        "jets.total_derivative_s": (per_round("jets.total_derivative"), "s"),
        "jets.euler_operator_s": (per_round("jets.euler_operator"), "s"),
        "jets.apply_field_s": (per_round("jets.apply_field"), "s"),
        "jets.system_reduce_s": (per_round("jets.system_reduce"), "s"),
        "jets.prolong_calls": (prolongs, "count"),
        "jets.prolong_distinct_ratio": (first_round["jets.prolong_distinct"] / prolongs if prolongs else 0.0, "ratio"),
        "exprs.eval_numeric_calls": (calls("exprs.eval_numeric"), "count"),
        "exprs.eval_numeric_s": (per_round("exprs.eval_numeric"), "s"),
        "exprs.substitute_calls": (calls("exprs.substitute"), "count"),
        "exprs.substitute_s": (per_round("exprs.substitute"), "s"),
        "exprs.render_s": (per_round("exprs.render"), "s"),
        "reduction.classify_self_s": (per_round("reduction.classify"), "s"),
        "reduction.build_canonical_transform_s": (per_round("reduction.build_canonical_transform"), "s"),
        "reduction.reduced_ode_s": (per_round("reduction.reduced_ode"), "s"),
        "numerics.step_rk4_calls": (calls("numerics.step_rk4"), "count"),
        "numerics.step_us_per_point": (
            1e6 * inclusive["numerics.step_rk4"] / points if points else 0.0, "us"),
        "numerics.rhs_s": (per_round("numerics.rhs"), "s"),
        "numerics.deriv_calls": (calls("numerics.deriv"), "count"),
        "numerics.deriv_s": (per_round("numerics.deriv"), "s"),
        "numerics.conserved_quantity_calls": (calls("numerics.conserved_quantity"), "count"),
        "numerics.conserved_quantity_s": (per_round("numerics.conserved_quantity"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# driver


def load_cli():
    if not (SRC / "nlseverify" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no nlseverify sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlseverify.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported nlseverify from {cli.__file__}, not {SRC}")
    return cli


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    cli = load_cli()
    commands = WORKLOADS[name]
    for _, argv in next(rounds(name, commands, seed)):  # untimed warm-up round
        run_op(cli, argv)
    report = {"workload": name, "trace": int(trace), "provenance": provenance(seed)}
    if not trace:
        variants = (False, True) if name == "symbolic" else (False,)
        setup_wall, setup = measure_setup(variants)
        tally = measure(cli, rounds(name, commands, seed), seconds)
        metrics, report["metrics"] = end_to_end(tally, setup_wall, setup)
    else:
        untraced = measure(cli, rounds(name, commands, seed), seconds / 2)
        tracer = layertrace.Tracer()
        first_round: dict[str, int] = {}

        def keep_first(k: int) -> None:
            if k == 1:
                first_round.update(tracer.snapshot())

        tracer.install()
        try:
            tally = measure(cli, rounds(name, commands, seed), seconds / 2, keep_first)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, first_round, tally, untraced)
        report["metrics"] = metrics
        report["trace_info"] = {
            "rounds": tally.rounds, "spans": tracer.span_count(), "rebound": tracer.rebound,
            "untraced_ref_ops_per_s": untraced.attempted / untraced.ref_seconds(),
            "traced_ref_ops_per_s": tally.attempted / tally.ref_seconds(),
        }
        tally.merge_outcomes(untraced)
    report["round"] = [c.metric for c, _ in next(rounds(name, commands, seed))]
    report["failures"] = tally.problems
    print_table(report)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def print_table(report: dict) -> None:
    prov = report["provenance"]
    cache = " ".join(f"{k} {v}" for k, v in prov["cache"].items())
    print(f"workload {report['workload']}  trace {report['trace']}  seed {prov['seed']}  "
          f"commit {prov['commit'][:12]}")
    print(f"python {prov['python']}  numpy {prov['numpy']}  nproc {prov['nproc']}  {cache}  "
          f"problem sha256 {prov['problem_sha256'][:16]}")
    print(f"{'metric':40} {'value':>14} {'unit':6} samples")
    for name, m in report["metrics"].items():
        extra = next((f"  p{p} {m[f'p{p}']:.6g}" for p in (99, 90) if f"p{p}" in m), "")
        base = f"  ({m['base']})" if "base" in m else ""
        print(f"{name:40} {m['value']:>14.6g} {m['unit']:6} {m.get('samples', '')}{extra}{base}")
    for metric, seen in report["failures"].items():
        for what, k in seen.items():
            print(f"failed {metric}: {k}x {what}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
