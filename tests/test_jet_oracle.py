"""SymPy as an independent oracle for the jet calculus.

Seeded random jet polynomials, each carrying one sin or cos of a small
combination of generators, are translated to SymPy with every dependent a
function of ``t, x`` and every jet the matching ``Derivative``:

* the total derivative equals ``sympy.diff``, SymPy's chain rule;
* the Euler operator equals the left-hand side that
  ``sympy.calculus.euler.euler_equations`` returns;
* prolongation is linear in the field, for two pairs of bundled
  symmetries acting on random expressions.

Differences are compared after the jets are put back as plain symbols,
rewritten in exponentials and expanded.  SymPy is a test-only dependency.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_expr
from nlseverify.exprs import Context, add, func, mul, render
from nlseverify.jets import VectorField, apply_field, euler_operator, iterated_derivative, prolong
from nlseverify.normal import accumulate, as_form, normalize

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

from sympy_jets import SympyJets  # noqa: E402

CTX = Context(("t", "x"), ("u", "v"), ("beta", "gamma"), max_order=6)
ORACLE = SympyJets(CTX)
T, X = ORACLE.symbols["t"], ORACLE.symbols["x"]
FUNCS = ORACLE.funcs
NAMES = ("t", "x", "u", "v", "beta", "u_x", "u_t", "v_x", "u_tx", "v_xx")
to_sympy, same = ORACLE.to_sympy, ORACLE.same


def jet_polynomial(seed: int):
    """A random polynomial over ``NAMES`` plus one term carrying sin or cos."""
    rng = random.Random(seed)
    gens = [CTX.parse(n) for n in NAMES]
    refs = [g.ref for g in gens]
    # a dependent or jet, plus a multiple of any generator
    lead, other = gens[rng.randrange(2, len(gens))], gens[rng.randrange(len(gens))]
    arg = add(mul(rng.randint(1, 3), lead), mul(rng.randint(-2, 2), other))
    atom = func("sin" if rng.random() < 0.5 else "cos", arg)
    return add(random_expr(rng, refs, 3), mul(random_expr(rng, refs, 1), atom))


def derivative(e, letter):
    return normalize(iterated_derivative(as_form(e), letter, CTX))


def euler(e, dep):
    return normalize(euler_operator(as_form(e), CTX[dep], CTX))


@pytest.mark.parametrize("seed", range(12))
def test_total_derivative_is_sympy_chain_rule(seed):
    e = jet_polynomial(seed)
    for letter, symbol in (("t", T), ("x", X)):
        got = to_sympy(derivative(e, letter).to_expr())
        assert same(got, sympy.diff(to_sympy(e), symbol)), (seed, letter, render(e))


def sympy_euler(lagrangian, f):
    """SymPy's Euler-Lagrange expression for ``f``.  ``euler_equations``
    drops an equation whose sides reduce to constants (``E_u[2*u] = 2``),
    so a marker term ``z*f``, which adds ``z``, keeps every one."""
    z = sympy.Symbol("z")
    (eq,) = euler_equations(lagrangian + z * f, [f], [T, X])
    return eq.lhs - eq.rhs - z


@pytest.mark.parametrize("seed", range(12))
def test_euler_operator_is_sympy_euler_equations(seed):
    e = jet_polynomial(100 + seed)
    for dep, f in FUNCS.items():
        want = sympy_euler(to_sympy(e), f)
        assert same(to_sympy(euler(e, dep).to_expr()), want), (seed, dep, render(e))


@pytest.mark.parametrize("pair", [(0, 2), (3, 4)], ids=["x1-x3", "x4-x5"])
def test_prolongation_is_linear_in_the_field(problem, pair):
    ctx = problem.ctx
    a, b = (problem.symmetries[i] for i in pair)
    summed = VectorField(
        "sum",
        {n: add(a.xi.get(n, 0), b.xi.get(n, 0)) for n in ("t", "x")},
        {n: add(a.eta.get(n, 0), b.eta.get(n, 0)) for n in ("u", "v")},
    )
    pa, pb, ps = (prolong(f, ctx) for f in (a, b, summed))
    rng = random.Random(sum(pair))
    refs = [ctx.parse(n).ref for n in ("t", "x", "u", "v", "beta", "u_x", "v_t", "u_tx", "v_xx")]
    for _ in range(6):
        e = as_form(random_expr(rng, refs, 2))
        split = accumulate(apply_field(pa, e), apply_field(pb, e))
        assert normalize(apply_field(ps, e)) == normalize(split)
