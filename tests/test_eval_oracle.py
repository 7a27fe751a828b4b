"""SymPy as an independent oracle for the numeric evaluator.

Every expression is rendered to text, parsed by SymPy and compiled with
``lambdify`` over the ``math`` module, then compared point by point with
one array call of ``eval_numeric`` at the classify sample points.  The
scalar path of ``eval_numeric`` must agree with every array element too.
A candidate's jets are compared with SymPy's derivatives of its closed
forms.  SymPy is a test-only dependency.
"""

from __future__ import annotations

import numpy as np
import pytest

from nlseverify.exprs import (
    DEPENDENT,
    INDEPENDENT,
    JetVar,
    collect_refs,
    eval_numeric,
    ref_sort_key,
    render,
)
from nlseverify.jets import jet_table, total_derivative
from nlseverify.normal import as_form, normalize
from nlseverify.reduction import draw_parameters, low_discrepancy_points

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    parse_expr,
    standard_transformations,
)

from sympy_jets import SympyJets  # noqa: E402

RTOL = 1e-12


def _close(got: float, want: float) -> bool:
    """Relative agreement, or absolute agreement near zero."""
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def _sample_bindings(problem, refs) -> dict:
    """Sample points for t and x, one seeded draw for the parameters, and
    seeded arrays for dependents and their jets."""
    xs, ts = np.array(low_discrepancy_points(100)).T
    params = draw_parameters(problem.ctx, seed=7, count=1)[0]
    rng = np.random.default_rng(2024)
    bind = {}
    for g in sorted(refs, key=ref_sort_key):
        if isinstance(g, JetVar) or g.kind == DEPENDENT:
            bind[g] = rng.uniform(-1.5, 1.5, size=xs.size)
        elif g.kind == INDEPENDENT:
            bind[g] = ts if g.name == "t" else xs
        else:
            bind[g] = params[g.name]
    return bind


def _sympy_values(e, bind) -> list[float]:
    gens = sorted(bind, key=ref_sort_key)
    symbols = {g.name: sympy.Symbol(g.name) for g in gens}
    local = dict(symbols, arctan=sympy.atan)
    parsed = parse_expr(
        render(e), local_dict=local, transformations=standard_transformations + (convert_xor,)
    )
    fn = sympy.lambdify([symbols[g.name] for g in gens], parsed, modules="math")
    columns = [np.broadcast_to(bind[g], (100,)) for g in gens]
    return [float(fn(*(float(c[i]) for c in columns))) for i in range(100)]


def _check(problem, labelled) -> None:
    """Each (label, expression, reference): ``eval_numeric`` of the
    expression against SymPy's value of the reference."""
    bad = []
    for label, e, reference in labelled:
        bind = _sample_bindings(problem, collect_refs(e) | collect_refs(reference))
        array_vals = np.broadcast_to(eval_numeric(e, bind), (100,))
        oracle = _sympy_values(reference, bind)
        for i in range(100):
            scalar_bind = {g: float(np.broadcast_to(v, (100,))[i]) for g, v in bind.items()}
            scalar = eval_numeric(e, scalar_bind)
            assert type(scalar) is float, label
            if not (_close(array_vals[i], oracle[i]) and _close(scalar, array_vals[i])):
                bad.append((label, i, array_vals[i], scalar, oracle[i]))
    assert not bad, bad[:5]


def test_equations_match_sympy(problem):
    _check(problem, [(label, eq, eq) for label, eq in problem.system.equations])


def test_conserved_vectors_match_sympy(problem):
    labelled = []
    for vec in problem.conserved:
        labelled += [
            (f"{vec.label}.density", vec.density, vec.density),
            (f"{vec.label}.flux", vec.flux, vec.flux),
        ]
    _check(problem, labelled)


def test_candidates_and_second_jets_match_sympy(problem):
    """Each candidate's closed forms and their derivatives up to second
    order, derived as classify derives them (one jet table per candidate),
    against SymPy's derivatives of the closed forms."""
    ctx = problem.ctx
    oracle = SympyJets(ctx)
    gens = [
        g
        for dep in ctx.dependents
        for g in (dep, *(ctx.jet(dep, word) for word in ("t", "x", "tt", "tx", "xx")))
    ]

    def derive(f, letter):
        return total_derivative(f, ctx[letter], ctx)

    labelled = []
    for cand in problem.candidates:
        images = {ctx[name]: as_form(e) for name, e in cand.fields.items()}
        table = jet_table(ctx, images, [gens], derive)
        for g in gens:
            dep, word = (g.dep, g.suffix) if isinstance(g, JetVar) else (g, "")
            reference = oracle.total_derivative(cand.fields[dep.name], word)
            labelled.append((f"{cand.label}.{g.name}", normalize(table[g]).to_expr(), reference))
    assert len(labelled) == 12 * 2 * 6
    _check(problem, labelled)
