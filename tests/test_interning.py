"""Generators and trig atoms are interned.

Equal fields give one object, whatever builds it: two contexts, two
loads, the reduced context of the canonical transform, two normalizations.
Each class keeps its objects in a weak-valued table, so once no caller
holds a leaf it is gone: nothing keeps one from one command to the next.

Identity hashing makes the iteration order of a set of leaves follow
object addresses, which differ from run to run.  The output must not:
each exact command, run again and again in one process with the leaves
collected in between, and in fresh interpreters under two hash seeds,
prints its golden file byte for byte.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import nlseverify
from nlseverify.cli import main
from nlseverify.exprs import DEPENDENT, Context, JetVar, VarId, collect_refs
from nlseverify.normal import Atom, normalize
from nlseverify.problem import load_problem

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(nlseverify.__file__).resolve().parents[1])
TABLES = (VarId, JetVar, Atom)

EXACT = {  # argv -> its golden stdout
    ("verify",): ROOT / "perfbench" / "golden" / "verify.tsv",
    ("associate",): ROOT / "perfbench" / "golden" / "associate.tsv",
    ("reduce",): ROOT / "perfbench" / "golden" / "reduce.tsv",
    ("--printed-variants", "verify"): ROOT / "perfbench" / "golden" / "verify_printed.tsv",
    ("--printed-variants", "reduce"): ROOT / "tests" / "golden" / "reduce_printed.tsv",
}
SEEDED = {("--seed", "1", "classify"): ROOT / "tests" / "golden" / "classify_seed1.tsv"}


def test_the_tables_are_weak_valued():
    for cls in TABLES:
        assert type(cls._table) is weakref.WeakValueDictionary, cls.__name__
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__name__


def test_a_file_parameter_is_one_object_in_the_reduced_context(problem, transform):
    assert problem.ctx.parameters
    for q in problem.ctx.parameters:
        assert transform.red_ctx[q.name] is q
    assert transform.red_ctx["c"] is VarId("parameter", "c")


def test_two_loads_alive_at_once_share_their_generators():
    first, second = load_problem(), load_problem()
    assert first is not second and first.ctx is not second.ctx
    for a, b in zip(
        first.ctx.independents + first.ctx.dependents + first.ctx.parameters,
        second.ctx.independents + second.ctx.dependents + second.ctx.parameters,
        strict=True,
    ):
        assert a is b
    refs = [sorted(collect_refs(eq), key=repr) for _, eq in first.system.equations]
    again = [sorted(collect_refs(eq), key=repr) for _, eq in second.system.equations]
    assert all(a is b for x, y in zip(refs, again, strict=True) for a, b in zip(x, y, strict=True))


def test_a_context_jet_is_the_interned_jet():
    ctx = Context(("t", "x"), ("u",))
    u = ctx["u"]
    assert ctx.jet(u, "xt") is JetVar(u, "tx") is JetVar(VarId(DEPENDENT, "u"), "tx")
    assert JetVar(u, "tx") is ctx.jet("u", "tx")
    with pytest.raises(TypeError):
        JetVar(u, suffix="tx")
    assert u.key == (0, 1, "u", "") and ctx.jet(u, "xt").key == (1, "u", 2, "tx")


def test_atoms_of_equal_arguments_are_one_object():
    ctx = Context(("t", "x"), ("u", "v"), ("eps",))
    a, b = normalize(ctx.parse("u + 2*v")), normalize(ctx.parse("2*v + u"))
    assert a is not b and a == b
    assert Atom("sin", a) is Atom("sin", b)
    with pytest.raises(TypeError):
        Atom(fn="sin", arg=b)
    assert Atom("sin", a) is not Atom("cos", a)
    first, second = normalize(ctx.parse("sin(u + 2*v)^3")), normalize(ctx.parse("sin(2*v + u)^3"))
    atoms = [g for nf in (first, second) for m, _ in nf.terms for g, _ in m if isinstance(g, Atom)]
    # sin(u + 2*v), and the cos(u + 2*v) of its rewritten square
    assert len(set(map(id, atoms))) == 2
    root = normalize(ctx.parse("sqrt(eps)"))
    ((m, _),) = root.terms
    ((atom, _),) = m
    assert atom is Atom("sqrt", normalize(ctx.parse("eps"))) and atom.node == ctx.parse("sqrt(eps)")


def test_an_interned_field_is_still_read_only():
    ctx = Context(("t", "x"), ("u",))
    nf = normalize(ctx.parse("cos(u_x)"))
    ((m, _),) = nf.terms
    ((atom, _),) = m
    leaves = ((ctx["u"], ("name", "key")), (ctx.jet("u", "x"), ("suffix", "key")), (atom, ("arg", "key", "node")))
    for leaf, names in leaves:
        for name in names:
            before = getattr(leaf, name)
            with pytest.raises(AttributeError):
                setattr(leaf, name, None)
            with pytest.raises(AttributeError):
                delattr(leaf, name)
            assert getattr(leaf, name) is before
        with pytest.raises(AttributeError):
            leaf.added = None


@pytest.mark.parametrize("argv", EXACT, ids=lambda argv: "-".join(a.strip("-") for a in argv))
def test_repeated_exact_commands_print_their_golden_file(capsys, argv):
    """30 runs in one process, the leaves collected between any two."""
    golden = EXACT[argv].read_text(encoding="utf-8")
    for _ in range(30):
        gc.collect()
        code = main(list(argv))
        assert capsys.readouterr().out == golden
        assert code == (2 if "--printed-variants" in argv else 0)


FRESH = """
import contextlib, gc, io, json, sys
sys.path.insert(0, SRC)
from nlseverify import cli
from nlseverify.exprs import JetVar, VarId
from nlseverify.normal import Atom
from nlseverify.problem import load_problem

def sizes():  # live leaves of each table, then the same after a collection
    now = [len(cls._table) for cls in (VarId, JetVar, Atom)]
    gc.collect()
    return now + [len(cls._table) for cls in (VarId, JetVar, Atom)]

problem = load_problem()
loaded = sizes()
del problem
runs = [["loaded", loaded, sizes()]]
for argv in COMMANDS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    runs.append([argv, code, out.getvalue(), sizes()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_fresh_interpreters_print_the_golden_files_and_keep_no_leaf(seed):
    """Under two hash seeds.  Once a loaded problem or a command is done
    with, the three tables are empty, before any collection as after one:
    what a command builds holds no reference cycle, so reference counting
    frees every leaf when the command returns, and none is there for the
    next command to find."""
    commands = [list(argv) for argv in (*EXACT, *SEEDED)]
    code = FRESH.replace("SRC", repr(SRC)).replace("COMMANDS", repr(commands))
    env = {**os.environ, "PYTHONHASHSEED": seed}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    (_, loaded, dropped), *runs = json.loads(proc.stdout)
    assert loaded[0] and loaded[1] and dropped == [0] * 6
    goldens = (*EXACT.values(), *SEEDED.values())
    for (argv, code, out, left), golden in zip(runs, goldens, strict=True):
        assert out == golden.read_text(encoding="utf-8"), argv
        assert code == (2 if "--printed-variants" in argv else 0), argv
        assert left == [0] * 6, argv
