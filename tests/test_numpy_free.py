"""The exact commands never import numpy; only ``classify`` and ``simulate``
make arrays.  Each check runs in a fresh interpreter, since this test
process has numpy loaded already."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import nlseverify

SRC = str(Path(nlseverify.__file__).resolve().parents[1])
LAYERTRACE = str(Path(SRC).parent / "perfbench" / "layertrace.py")


def run_fresh(code: str, flags: tuple[str, ...] = ("-I",)) -> list[str]:
    """Stdout lines of ``code`` run by a fresh interpreter, started with
    ``flags``, that imports nlseverify from this tree and starts without numpy."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\nassert 'numpy' not in sys.modules\n"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", prelude + code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


SYMBOLIC = """
import contextlib, io
import nlseverify, nlseverify.cli
from nlseverify.problem import load_problem

load_problem()
load_problem(printed=True)

def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return nlseverify.cli.main(list(argv))

commands = (["verify"], ["associate"], ["reduce"], ["--printed-variants", "verify"],
            ["--printed-variants", "reduce"])
print([main(*argv) for argv in commands], "numpy" in sys.modules)

# The benchmark's tracer wraps the numerics functions by module name once
# the command line is imported, whatever ran before.
import importlib.util
spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
tracer = layertrace.Tracer()
tracer.install()
tracer.uninstall()
print("numpy" in sys.modules)

print(main("--seed", "1", "classify"), main("simulate", "--T", "0.01"), "numpy" in sys.modules)
"""


def test_symbolic_commands_leave_numpy_unloaded():
    lines = run_fresh(f"LAYERTRACE = {LAYERTRACE!r}\n" + SYMBOLIC)
    assert lines == ["[0, 0, 0, 2, 2] False", "False", "0 0 True"]


SCALAR = """
from nlseverify.exprs import Context, ExprError, eval_numeric

ctx = Context("tx", "u", ["beta"])
beta = ctx["beta"]
cases = (("sqrt(beta)", -1.0), ("1/beta", 0.0), ("10^400", 1.0), ("beta + 1", None),
         ("sqrt(beta)*cos(beta) + arctan(beta) - sin(beta)", 2.0))
for text, value in cases:
    try:
        print(repr(eval_numeric(ctx.parse(text), {} if value is None else {beta: value})))
    except ExprError as exc:
        print(type(exc).__name__, exc)
print("numpy" in sys.modules)
"""


def test_scalar_evaluation_and_its_domain_errors_need_no_numpy():
    assert run_fresh(SCALAR) == [
        "EvalDomainError sqrt of negative value -1.0 in sqrt(beta)",
        "EvalDomainError zero base with negative exponent in beta^-1",
        "EvalDomainError a constant of 401 digits overflows a float",
        "UnboundGeneratorError no value bound for beta",
        repr(math.sqrt(2.0) * math.cos(2.0) + math.atan(2.0) - math.sin(2.0)),
        "False",
    ]
