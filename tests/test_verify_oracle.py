"""SymPy re-derives every ``verify`` identity of the bundled problem file.

The file's multipliers, conserved vectors, symmetries and equations are
translated to SymPy through ``sympy_jets``, with every dependent a function
of ``t, x``, and SymPy computes each residual by its own route:

* a multiplier condition is the left-hand side that
  ``sympy.calculus.euler.euler_equations`` returns for ``q1*g1 + q2*g2``;
* a divergence identity is ``D_t(density) + D_x(flux) - (q1*g1 + q2*g2)``
  with ``sympy.diff`` as the total derivative;
* a symmetry invariance is the prolonged field in characteristic form,
  ``xi^i D_i g + sum_J D_J(Q) dg/du_J`` with ``Q = eta - xi^i u_i``, with
  every time derivative then replaced by the evolution rules and their
  derivatives, until none is left.

Each residual comes back through the package's parser and normal form and
must equal the package's own residual: zero for all 13 identities of the
bundled file, and the same non-zero residual where the printed variants
break one.  The symmetries of a fourth-order equation are checked the same
way.  SymPy is a test-only dependency.
"""

from __future__ import annotations

from functools import cache

import pytest

from conftest import FOURTH_ORDER_SYMMETRIES
from nlseverify.jets import divergence_match, multiplier_condition, symmetry_invariance
from nlseverify.normal import normalize
from nlseverify.problem import load_problem, load_problem_text

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

from sympy_jets import SympyJets  # noqa: E402

VARIANTS = pytest.mark.parametrize("printed", [False, True], ids=["bundled", "printed"])


@cache
def setting(printed: bool, text: str | None = None):
    """The problem (the bundled one, or ``text``), its SymPy translation and
    its equations in SymPy."""
    problem = load_problem_text(text, "file.prob") if text else load_problem(printed=printed)
    oracle = SympyJets(problem.ctx)
    equations = tuple(oracle.to_sympy(eq) for _, eq in problem.system.equations)
    return problem, oracle, equations


def form(oracle: SympyJets, s):
    """A SymPy expression over jets as the package's normal form."""
    return normalize(oracle.from_sympy(s))


def combination(oracle: SympyJets, equations, pair):
    return sum(oracle.to_sympy(q) * g for q, g in zip(pair.q, equations, strict=True))


def on_shell(oracle: SympyJets, s, rules):
    """``s`` with each time derivative of a dependent replaced by its rule,
    differentiated along the rest of the jet's word, until none is left."""
    t = oracle.symbols[oracle.ctx.independents[0].name]
    while hits := [d for d in s.atoms(sympy.Derivative) if t in d.variables]:
        bound = {}
        for d in hits:
            rest = list(d.variables)
            rest.remove(t)
            bound[d] = sympy.diff(rules[d.expr], *rest) if rest else rules[d.expr]
        s = s.xreplace(bound)
    return s


def prolonged_action(oracle: SympyJets, g, fieldv):
    """The prolonged point field applied to ``g``, in characteristic form."""
    xi = {oracle.symbols[name]: oracle.to_sympy(e) for name, e in fieldv.xi.items()}
    characteristic = {}
    for d in oracle.ctx.dependents:
        f = oracle.funcs[d.name]
        eta = oracle.to_sympy(fieldv.eta[d.name]) if d.name in fieldv.eta else 0
        characteristic[f] = eta - sum(c * sympy.diff(f, v) for v, c in xi.items())
    out = sum((c * sympy.diff(g, v) for v, c in xi.items()), sympy.Integer(0))
    plain = g.xreplace(oracle.plain)
    back = {symbol: jet for jet, symbol in oracle.plain.items()}
    for jet, symbol in oracle.plain.items():
        partial = sympy.diff(plain, symbol)
        if partial == 0:
            continue
        if isinstance(jet, sympy.Derivative):
            coefficient = sympy.diff(characteristic[jet.expr], *jet.variables)
        else:
            coefficient = characteristic[jet]
        out += coefficient * partial.xreplace(back)
    return out


@VARIANTS
def test_multiplier_conditions_match_sympy(printed):
    problem, oracle, equations = setting(printed)
    funcs = [oracle.funcs[d.name] for d in problem.ctx.dependents]
    base = [oracle.symbols[v.name] for v in problem.ctx.independents]
    for pair in problem.multipliers:
        lhs = euler_equations(combination(oracle, equations, pair), funcs, base)
        got = [form(oracle, eq.lhs) for eq in lhs]
        assert got == list(multiplier_condition(problem.system, pair).values()), pair.label
        assert all(nf.is_zero for nf in got) != printed, pair.label


@VARIANTS
def test_divergence_identities_match_sympy(printed):
    problem, oracle, equations = setting(printed)
    t, x = (oracle.symbols[v.name] for v in problem.ctx.independents)
    for pair, vec in zip(problem.multipliers, problem.conserved, strict=True):
        gap = (sympy.diff(oracle.to_sympy(vec.density), t) + sympy.diff(oracle.to_sympy(vec.flux), x)
               - combination(oracle, equations, pair))
        got = form(oracle, gap)
        assert got == divergence_match(problem.system, pair, vec), (pair.label, vec.label)
        assert got.is_zero != printed, (pair.label, vec.label)


@pytest.mark.parametrize(
    "printed, text, want",
    [
        (False, None, []),
        (True, None, ["x3", "x4", "x5"]),
        (False, FOURTH_ORDER_SYMMETRIES, ["x5", "x6"]),
    ],
    ids=["bundled", "printed", "fourth-order"],
)
def test_symmetry_invariances_match_sympy(printed, text, want):
    """The printed g2 drops a factor u, which breaks x3, x4 and x5 only; on
    u_t + u_xxxx = 0, the wrong scaling x5 and the boost x6 fail."""
    problem, oracle, equations = setting(printed, text)
    system = problem.system
    rules = {oracle.funcs[d.name]: oracle.to_sympy(r) for d, r in system.evolution.items()}
    broken = []
    for fieldv in problem.symmetries:
        got = [form(oracle, on_shell(oracle, prolonged_action(oracle, g, fieldv), rules))
               for g in equations]
        assert got == list(symmetry_invariance(system, fieldv).values()), fieldv.label
        if not all(nf.is_zero for nf in got):
            broken.append(fieldv.label)
    assert broken == want
