"""The compiled evaluator against the recursive walk of ``eval_walk``.

``compile_numeric`` shares repeated operations, folds constants and fixed
values, skips the neutral start of sums and products and drops factors of
1.0 and -1.0; none of that may change a value or an error.  Each case is
evaluated three ways (every generator an input, every generator fixed,
parameters fixed and the rest inputs) and must give the walk's bytes
outside NaN positions (so -0.0 is not 0.0; scalars as floats) or raise the
walk's error, same type and message.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np
import pytest

from eval_walk import eval_walk
from nlseverify.exprs import (
    DEPENDENT,
    INDEPENDENT,
    PARAMETER,
    Context,
    EvalDomainError,
    JetVar,
    collect_refs,
    compile_numeric,
    eval_numeric,
    func,
    pow_,
    ref_sort_key,
    var,
)
from nlseverify.numerics import Grid, Workspace, evolution_program
from nlseverify.reduction import (
    candidate_jets,
    compile_constraints,
    compile_equations,
    compile_jets,
    draw_parameters,
    low_discrepancy_points,
)


def is_parameter(g) -> bool:
    return not isinstance(g, JetVar) and g.kind == PARAMETER


def outcome(evaluate):
    try:
        return "value", evaluate()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "error", (type(exc), str(exc))


def same(got, want) -> bool:
    (kind, a), (want_kind, b) = got, want
    if kind != want_kind:
        return False
    if kind == "error":
        return a == b
    if isinstance(b, float):
        return type(a) is float and (
            (a != a and b != b) or struct.pack("d", a) == struct.pack("d", b)
        )
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(b)
    return np.array_equal(np.isnan(a), nan) and a[~nan].tobytes() == b[~nan].tobytes()


def test_same_tells_signed_zeros_apart():
    assert not same(("value", 0.0), ("value", -0.0))
    assert not same(("value", np.array([1.0, 0.0])), ("value", np.array([1.0, -0.0])))
    assert same(("value", np.array([np.nan, -0.0])), ("value", np.array([-np.nan, -0.0])))
    assert same(("value", float("nan")), ("value", -float("nan")))


def compiled_ways(exprs, bindings):
    """Each expression's outcome per way of compiling, as one program per way."""
    refs = sorted(set().union(*map(collect_refs, exprs)), key=ref_sort_key)
    bound = [g for g in refs if g in bindings]
    params = {g: bindings[g] for g in bound if is_parameter(g)}
    ways = {
        "inputs": ({}, bound),
        "fixed": (bindings, []),
        "parameters fixed": (params, [g for g in bound if g not in params]),
    }
    out = {}
    for way, (fixed, free) in ways.items():
        program = compile_numeric(exprs, fixed, free)
        out[way] = outcome(lambda: program.run([bindings[g] for g in free]))
    return out


def check(exprs, bindings) -> None:
    """All expressions compiled together against the walk of each alone.
    A run stops at the first error, so the walk's first error is the one."""
    want = []
    for e in exprs:
        kind, value = outcome(lambda: eval_walk(e, bindings))
        want.append((kind, value))
        if kind == "error":
            break
    for way, (kind, got) in compiled_ways(exprs, bindings).items():
        if want[-1][0] == "error":
            assert same((kind, got), want[-1]), (way, got, want[-1])
        else:
            assert kind == "value", (way, got)
            for e, g, w in zip(exprs, got, want):
                assert same(("value", g), w), (way, e)
    for e in exprs:
        got = outcome(lambda: eval_numeric(e, bindings))
        assert same(got, outcome(lambda: eval_walk(e, bindings))), e


def snapshot_bindings(problem, refs, size=None, seed=2024) -> dict:
    """Seeded values for ``refs``: fields and jets as arrays of ``size``
    (floats when None), ``t`` and ``x`` likewise, parameters from one draw."""
    rng = np.random.default_rng(seed)
    params = draw_parameters(problem.ctx, seed=7, count=1)[0]
    bind = {}
    for g in sorted(refs, key=ref_sort_key):
        if is_parameter(g):
            bind[g] = params[g.name]
        else:
            value = rng.uniform(-1.5, 1.5, size=size)
            bind[g] = value if size else float(value)
    return bind


@pytest.mark.parametrize("size", [None, 64], ids=["scalars", "arrays"])
def test_bundled_rules_and_densities(problem, size):
    rules = [problem.system.evolution[d] for d in problem.ctx.dependents]
    densities = list(problem.quantity_densities().values())
    fluxes = [vec.flux for vec in problem.conserved]
    for exprs in (rules, densities, fluxes, rules + densities + fluxes):
        refs = set().union(*map(collect_refs, exprs))
        check(exprs, snapshot_bindings(problem, refs, size))


FOLDING = [
    "1*u", "-u*v + w", "-(u - v)", "u - -v", "-u^3", "-sin(u)", "-u - v", "(-u)^2",
    "sin(-u)", "beta*u", "u*beta - w", "-beta*u*v", "w - beta*u", "-(beta*u) - -(v*beta)",
]
SPECIAL = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 1.5, -2.5]


@pytest.mark.parametrize("beta", [1.0, -1.0, 2.0])
@pytest.mark.parametrize("text", FOLDING)
def test_unit_factors_fold_to_the_same_bytes(text, beta):
    """Each of u, v, w over signed zeros, infinities, nan and two finite
    values, every combination, as scalars and as float arrays; beta fixed
    to +-1.0 is a factor that folds away."""
    context = Context(("t", "x"), ("u", "v", "w"), ("beta",))
    u, v, w, b = (context[n] for n in ("u", "v", "w", "beta"))
    e = context.parse(text)
    combos = list(itertools.product(SPECIAL, repeat=3))
    with np.errstate(all="ignore"):
        check([e], {u: np.array([c[0] for c in combos]), v: np.array([c[1] for c in combos]),
                    w: np.array([c[2] for c in combos]), b: beta})
        for cu, cv, cw in combos:
            check([e], {u: cu, v: cv, w: cw, b: beta})


def test_unit_factors_leave_no_operation(problem):
    """The bundled rules at beta = delta = 1 multiply by neither 1.0 nor
    -1.0, and a negation is emitted only where a value needs it."""
    context = problem.ctx
    u, beta = context["u"], context["beta"]
    for text, count in (("beta*u", 0), ("-beta*u", 1), ("-u*u_x + beta", 2), ("sin(-u)", 2)):
        program = compile_numeric((context.parse(text),), {beta: 1.0}, (u, context.jet(u, "x")))
        assert len(program.code) == count, text


def test_rules_share_their_common_subtree(problem):
    """u^2 and v^2 are computed once for both rules, u^2 + v^2 too."""
    work = Workspace(Grid(16, 1.0), 2)
    program = evolution_program(problem.system, dict(problem.param_values), work).program
    names = [fn.__name__ for fn, *_ in program.code]
    assert names.count("_power") == 2
    assert len(program.code) == 11


def test_candidate_jets_constraints_and_equations(problem):
    system, ctx = problem.system, problem.ctx
    xs, ts = np.array(low_discrepancy_points(100)).T
    equations = [eq for _, eq in system.equations]
    for cand in problem.candidates:
        for seed in (1, 7):
            params = draw_parameters(ctx, seed=seed, count=1)[0]
            base = {p: params[p.name] for p in ctx.parameters}
            check([c for _, c in cand.constraints], base)
            base[system.time], base[system.space] = ts, xs
            jets = candidate_jets(cand, system)
            check(list(jets.values()), base)
            with np.errstate(all="ignore"):
                base.update((g, eval_walk(e, base)) for g, e in jets.items())
                check(equations, base)


def test_classify_programs_bind_what_the_walk_binds(problem):
    """The programs classify runs name their inputs; each is bound."""
    system = problem.system
    assert set(compile_equations(system).inputs) == set().union(
        *(collect_refs(eq) for _, eq in system.equations)
    )
    for cand in problem.candidates:
        gens, program = compile_jets(candidate_jets(cand, system))
        assert all(g.kind in (INDEPENDENT, PARAMETER) for g in program.inputs)
        assert all(isinstance(g, JetVar) or g.kind == DEPENDENT for g in gens)
    for expr, program in compile_constraints(problem.candidates).items():
        assert set(program.inputs) == collect_refs(expr)


@pytest.fixture()
def ctx():
    return Context(("t", "x"), ("u", "v"), ("beta",))


def domain_cases(ctx):
    """The domain-error cases of the partial-substitute and numpy-free tests,
    and errors that meet in one expression: the first in tree order wins."""
    u, v, beta = ctx["u"], ctx["v"], ctx["beta"]
    sqrt_u, inv_u = func("sqrt", var(u)), pow_(var(u), -1)
    return [
        (sqrt_u, {u: -1.0}),
        (inv_u, {u: 0.0}),
        (var(u), {}),
        (sqrt_u, {u: np.array([1.0, -2.0, 3.0])}),
        (inv_u, {u: np.array([1.0, 0.0])}),
        (pow_(var(u), 400), {u: 1e10}),
        (pow_(var(u), 400), {u: np.array([1e10])}),
        (ctx.parse("sqrt(beta)"), {beta: -1.0}),
        (ctx.parse("1/beta"), {beta: 0.0}),
        (ctx.parse("10^400"), {}),
        (ctx.parse("2^5000*u + 1"), {u: 1.0}),
        (ctx.parse("beta + 1"), {}),
        (ctx.parse("sin(u)"), {u: float("inf")}),
        (ctx.parse("sqrt(beta)*cos(beta) + arctan(beta) - sin(beta)"), {beta: 2.0}),
        (ctx.parse("sqrt(u)*cos(v) + u^-2 - arctan(v)*3/2"),
         {u: np.array([0.5, 1.0, 2.0]), v: np.array([-1.0, 0.0, 3.0])}),
        (ctx.parse("sqrt(u) + 1/v"), {u: -1.0, v: 0.0}),
        (ctx.parse("1/v + sqrt(u)"), {u: -1.0, v: 0.0}),
        (ctx.parse("1/u + beta"), {u: 0.0}),
        (ctx.parse("beta + 1/u"), {u: 0.0}),
        (ctx.parse("(u + v)^-1 + (u + v)^2"), {u: 1.0, v: -1.0}),
        (ctx.parse("u*0 + 1"), {u: float("nan")}),
        (ctx.parse("-u - v"), {u: 0.0, v: 0.0}),
    ]


def test_domain_errors_match_the_walk(ctx):
    with np.errstate(all="ignore"):
        for e, bindings in domain_cases(ctx):
            for size in (1, 2):  # as one expression, and twice in one program
                check([e] * size, bindings)


def test_an_error_is_raised_afresh_on_every_run(ctx):
    """A folded error is a new exception per run, so tracebacks do not pile up."""
    program = compile_numeric((ctx.parse("1/u"),), {ctx["u"]: 0.0})
    depths = []
    for _ in range(3):
        with pytest.raises(EvalDomainError, match="zero base") as info:
            program.run(())
        depths.append(len(info.traceback))
    assert depths[0] == depths[1] == depths[2]
