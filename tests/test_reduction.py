from __future__ import annotations

import math

import numpy as np
import pytest

from nlseverify.exprs import (
    DEPENDENT,
    JetVar,
    add,
    collect_refs,
    compile_numeric,
    const,
    eval_numeric,
    var,
)
from nlseverify.jets import PDESystem, explicit_partial
from nlseverify.normal import as_form, normalize
from nlseverify.problem import bundled_problem_text, load_problem_text
from nlseverify.reduction import (
    ReducedODE,
    SolutionCandidate,
    build_canonical_transform,
    candidate_equation_residuals,
    candidate_jets,
    classify,
    compile_equations,
    compile_jets,
    draw_parameters,
    first_integral_residual,
    low_discrepancy_points,
    reduced_ode,
)


def pushed(transform, *exprs):
    """Trees pushed forward at the amplitude w, as normal forms."""
    forms = transform.pushforward([as_form(e) for e in exprs], as_form(transform.red_ctx.parse("w")))
    return [normalize(f) for f in forms]


def test_jacobian_is_identity(problem, transform):
    """The pushed-forward independents are s and r themselves."""
    red = transform.red_ctx
    s, r = red["s"], red["r"]
    t_img, x_img = (
        nf.form() for nf in pushed(transform, var(problem.ctx["t"]), var(problem.ctx["x"]))
    )
    one, zero = normalize(red.parse("1")), normalize(red.parse("0"))
    a, b = explicit_partial(t_img, s), explicit_partial(x_img, s)
    c, d = explicit_partial(t_img, r), explicit_partial(x_img, r)
    assert normalize(a) == one
    assert normalize(b) == zero
    assert normalize(c) == zero
    assert normalize(d) == one
    assert normalize(transform.jac_det) == one


TABLE_CASES = [
    ("u", "w*cos(p + c*s)"),
    ("v", "w*sin(p + c*s)"),
    ("u_t", "-c*w*sin(p + c*s)"),
    ("v_t", "c*w*cos(p + c*s)"),
    ("u_x", "w_r*cos(p + c*s) - w*p_r*sin(p + c*s)"),
    ("v_x", "w_r*sin(p + c*s) + w*p_r*cos(p + c*s)"),
    (
        "u_xx",
        "w_rr*cos(p + c*s) - 2*w_r*p_r*sin(p + c*s)"
        " - w*p_rr*sin(p + c*s) - w*p_r^2*cos(p + c*s)",
    ),
    ("u_tt", "-c^2*w*cos(p + c*s)"),
    ("u_tx", "-c*(w_r*sin(p + c*s) + w*p_r*cos(p + c*s))"),
]


@pytest.mark.parametrize("name,expected", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_derivative_table(problem, transform, name, expected):
    orig, red = problem.ctx, transform.red_ctx
    if "_" in name:
        key = orig.jet(name.split("_")[0], name.split("_")[1])
    else:
        key = orig[name]
    (image,) = pushed(transform, var(key))
    assert image == normalize(red.parse(expected))


def test_forward_map_inverts_the_table(problem, transform):
    """(s, r, w, p) = (t, x, hypot(u, v), atan2(v, u) - c*t) is carried
    back to (u, v) by the pushed-forward dependents."""
    red = transform.red_ctx
    c = 0.7
    images = [
        nf.to_expr() for nf in pushed(transform, var(problem.ctx["u"]), var(problem.ctx["v"]))
    ]
    points = [
        (0.3, 1.2, -0.8, 0.5),
        (1.1, 0.2, 0.6, -0.9),
        (2.0, 0.0, 0.0, 1.3),
    ]
    for t, x, u, v in points:
        bind = {red["c"]: c, red["s"]: t, red["r"]: x}
        bind[red["w"]], bind[red["p"]] = math.hypot(u, v), math.atan2(v, u) - c * t
        u_back, v_back = (eval_numeric(e, bind) for e in images)
        assert abs(u_back - u) < 1e-12
        assert abs(v_back - v) < 1e-12


def test_plain_energy_transforms_cleanly(problem, transform):
    t2 = problem.conserved[1]
    red = transform.red_ctx
    density, flux = pushed(transform, t2.density, t2.flux)
    assert density == normalize(red.parse("w^2/2"))
    assert flux == normalize(red.parse("beta*w^2/2 - gamma*w^2*p_r"))


def test_momentum_density_transforms_to_phase_gradient(problem, transform):
    t1 = problem.conserved[0]
    red = transform.red_ctx
    (density,) = pushed(transform, t1.density)
    assert density == normalize(red.parse("w^2*p_r/2"))


def test_reduced_residual_has_the_five_term_form(ode):
    red = ode.transform.red_ctx
    expected = red.parse(
        "eps*(-c*sin(2*p + 2*c*s) - beta*p_r*sin(2*p + 2*c*s)"
        " + gamma*p_r^2*sin(2*p + 2*c*s) + delta*eps*sin(2*p + 2*c*s)"
        " - gamma*p_rr*cos(2*p + 2*c*s))"
    )
    assert ode.residual == normalize(expected)
    # Half-angle rewriting leaves one monomial per balance term on
    # sin*cos and two for the curvature term on cos^2 - sin^2.
    assert len(ode.residual.terms) == 6


def test_factor_identities(ode):
    red = ode.transform.red_ctx
    assert ode.phase_balance == normalize(
        red.parse("-c - beta*p_r + gamma*p_r^2 + delta*eps")
    )
    assert ode.curvature == normalize(red.parse("gamma*p_rr"))
    residuals = ode.factorization_residuals()
    assert set(residuals) == {"combination", "g1", "g2"}
    assert all(nf.is_zero for nf in residuals.values())


@pytest.mark.parametrize("factor", ["phase_balance", "curvature"])
def test_factorization_checks_the_reported_factors(ode, factor):
    """A wrong reported factor must show in every factorization identity."""
    fields = {
        "transform": ode.transform,
        "residual": ode.residual,
        "phase_balance": ode.phase_balance,
        "curvature": ode.curvature,
        "equation_subs": ode.equation_subs,
    }
    fields[factor] = normalize(add(getattr(ode, factor).to_expr(), const(1)))
    wrong = ReducedODE(*fields.values())
    residuals = wrong.factorization_residuals()
    assert set(residuals) == {"combination", "g1", "g2"}
    assert not any(nf.is_zero for nf in residuals.values())


def test_t2_flux_reduces_to_a_first_integral(problem, ode):
    """Double reduction: D_r of the reduced t2 flux is -eps*curvature."""
    t2 = {vec.label: vec for vec in problem.conserved}["t2"]
    assert first_integral_residual(ode, t2.forms[1]).is_zero


def test_first_integral_fails_for_a_flipped_flux():
    flipped = bundled_problem_text().replace(
        "+ 2*gamma*u_x) - 2*gamma*u*v_x", "- 2*gamma*u_x) + 2*gamma*u*v_x"
    )
    assert flipped != bundled_problem_text()
    problem = load_problem_text(flipped, "flipped.prob")
    t2 = {vec.label: vec for vec in problem.conserved}["t2"]
    ode = reduced_ode(build_canonical_transform(problem.system))
    residual = first_integral_residual(ode, t2.forms[1])
    assert residual == normalize(ode.transform.red_ctx.parse("2*eps*gamma*p_rr"))


def test_reduced_ode_needs_one_equation_per_dependent(system):
    """The command line refuses such a file before; library callers meet this guard."""
    three = PDESystem(
        system.ctx, system.time, system.space, system.equations + system.equations[:1], system.evolution
    )
    with pytest.raises(ValueError, match="one equation per dependent"):
        reduced_ode(build_canonical_transform(three))


EXPECTED_VERDICTS = {
    "case1-const-u": ("reduced-only", True),
    "case1-const-vneg": ("reduced-only", True),
    "case1-const-vpos": ("reduced-only", True),
    "case1-linear-phase": ("exact", True),
    "case2-const-u": ("reduced-only", True),
    "case2-const-vneg": ("reduced-only", True),
    "case2-const-vpos": ("reduced-only", True),
    "case2-const-phase": ("neither", True),
    "case3-const-u": ("exact", False),
    "case3-const-vneg": ("exact", False),
    "case3-const-vpos": ("exact", False),
    "case3-travel-phase": ("exact", True),
}


def test_classification_verdicts(problem, system):
    reports = classify(system, problem.candidates, seed=7)
    assert len(reports) == len(EXPECTED_VERDICTS)
    for rep in reports:
        verdict, adjudicated = EXPECTED_VERDICTS[rep.candidate.label]
        assert rep.verdict == verdict, rep.candidate.label
        assert (not rep.candidate.suspect) == adjudicated
        assert len(rep.draws) == 3


def test_equal_closed_forms_share_their_jets(problem, system, monkeypatch):
    """The bundled twelve candidates are six closed forms: the three
    constant profiles recur in all three cases."""
    calls = []

    def counting(cand, system):
        calls.append(cand.label)
        return candidate_jets(cand, system)

    monkeypatch.setattr("nlseverify.reduction.candidate_jets", counting)
    reports = classify(system, problem.candidates, seed=7)
    assert len(reports) == 12
    assert len(calls) == len({tuple(c.fields.items()) for c in problem.candidates}) == 6


def test_constant_candidates_satisfy_amplitude_law(problem, system):
    """For the constant profiles the equation residual is exactly
    delta*eps^(3/2) while the angular combination vanishes."""
    reports = classify(system, problem.candidates, seed=7)
    for rep in reports:
        if rep.verdict != "reduced-only":
            continue
        for draw in rep.draws:
            want = draw.params["delta"] * draw.params["eps"] ** 1.5
            assert abs(draw.eq_residual - want) / want < 1e-12
            assert draw.reduced_residual < 1e-12


def bound(system, params, points):
    """The parameters by generator, and the points as arrays of x and t."""
    xs, ts = np.array(points, dtype=float).T
    values = {system.ctx[k]: val for k, val in params.items()}
    return values | {system.time: ts, system.space: xs}


def test_const_phase_candidate_residual_laws(problem, system):
    cand = {c.label: c for c in problem.candidates}["case2-const-phase"]
    params = {"beta": 0.0, "gamma": 1.1, "delta": 1.3, "c": 0.0, "eps": 0.7, "c1": 0.9}
    points = low_discrepancy_points(50)
    eq_max, combo_max = candidate_equation_residuals(
        compile_jets(candidate_jets(cand, system)),
        compile_equations(system),
        system,
        bound(system, params, points),
    )
    amp = 1.3 * 0.7**1.5
    assert abs(eq_max - amp * max(abs(math.sin(0.9)), abs(math.cos(0.9)))) < 1e-12
    assert abs(combo_max - 1.3 * 0.7**2 * abs(math.sin(1.8))) < 1e-12


def test_exact_candidate_is_pointwise_zero(problem, system):
    cand = {c.label: c for c in problem.candidates}["case1-linear-phase"]
    params = {"beta": 1.4, "gamma": 0.0, "delta": 0.8, "c": 0.0, "eps": 1.2, "c1": 0.3}
    eq_max, combo_max = candidate_equation_residuals(
        compile_jets(candidate_jets(cand, system)),
        compile_equations(system),
        system,
        bound(system, params, low_discrepancy_points(50)),
    )
    assert eq_max < 1e-12
    assert combo_max < 1e-12


@pytest.mark.parametrize(
    "first, second, want",
    [
        ("x^400 - x^400", "x^400", ("nan", "nan")),
        ("x^400", "x^400 - x^400", ("nan", "nan")),
        ("x", "x^400", ("inf", "nan")),  # v = 0 times an infinite g2
        ("x^400", "x", ("inf", "inf")),
    ],
)
def test_non_finite_residuals_keep_their_kind(problem, system, first, second, want):
    """A nan in either equation makes the maximum nan, and an infinity
    among finite values makes it infinite, whichever equation holds it;
    the residuals print as in a draw's cause."""
    ctx = problem.ctx
    cand = {c.label: c for c in problem.candidates}["case1-const-u"]
    equations = compile_numeric((ctx.parse(first), ctx.parse(second)), {}, (ctx["x"],))
    params = {"beta": 1.4, "gamma": 0.0, "delta": 0.8, "c": 0.0, "eps": 1.2, "c1": 0.3}
    with np.errstate(all="ignore"):
        eq_max, combo_max = candidate_equation_residuals(
            compile_jets(candidate_jets(cand, system)),
            equations,
            system,
            bound(system, params, low_discrepancy_points(50)),
        )
    assert (f"{eq_max:.3e}", f"{combo_max:.3e}") == want


def test_low_discrepancy_points_are_deterministic():
    first = low_discrepancy_points(100)
    again = low_discrepancy_points(100)
    assert first == again
    assert len(set(first)) == 100
    for x, t in first:
        assert 0.0 <= x <= 2.0 * math.pi
        assert 0.0 <= t <= 1.0


def test_draw_parameters_are_seeded_and_ordered(problem):
    ctx = problem.ctx
    draws = draw_parameters(ctx, seed=7, count=3)
    again = draw_parameters(ctx, seed=7, count=3)
    assert draws == again
    assert [list(d) for d in draws] == [["beta", "gamma", "delta", "c", "eps", "c1"]] * 3
    assert all(0.1 <= val <= 2.0 for d in draws for val in d.values())
    assert draws[0] != draws[1]


def _only_base_variables(exprs) -> bool:
    refs = set().union(*(collect_refs(e) for e in exprs))
    return not any(isinstance(g, JetVar) or g.kind == DEPENDENT for g in refs)


def _values(e, ctx, jets=None):
    """``e`` at 50 sample points (x, t) and fixed parameter values, with
    the values of ``jets`` (trees over the base variables) bound."""
    xs, ts = zip(*low_discrepancy_points(50))
    params = {"beta": 1.4, "gamma": 0.6, "delta": 0.8, "c": 0.3, "eps": 1.2, "c1": 0.3}
    bind = {ctx[k]: val for k, val in params.items()}
    bind[ctx["x"]], bind[ctx["t"]] = np.array(xs), np.array(ts)
    bind.update((g, eval_numeric(j, bind)) for g, j in (jets or {}).items())
    return np.broadcast_to(eval_numeric(e, bind), (50,))


def test_candidate_bindings_reject_implicit_forms(problem):
    ctx = problem.ctx
    bad = SolutionCandidate("loop", (), {"u": ctx.parse("v"), "v": ctx.parse("0")}, False)
    with pytest.raises(ValueError):
        candidate_jets(bad, problem.system)


def _occurring(system):
    """The dependents and jets of the equations."""
    refs = set().union(*(collect_refs(eq) for _, eq in system.equations))
    return {g for g in refs if isinstance(g, JetVar) or g.kind == DEPENDENT}


def test_candidate_bindings_cover_second_jets(problem):
    """Every dependent and jet of the equations, u_xx and v_xx included,
    is the candidate's closed form and its derivatives, SymPy's here."""
    ctx = problem.ctx
    oracle = pytest.importorskip("sympy_jets").SympyJets(ctx)
    cand = {c.label: c for c in problem.candidates}["case1-linear-phase"]
    jets = candidate_jets(cand, problem.system)
    assert _only_base_variables(jets.values())
    occurring = _occurring(problem.system)
    assert {g.name for g in occurring} == {"u", "v", "u_t", "u_x", "u_xx", "v_t", "v_x", "v_xx"}
    want = {
        g: oracle.total_derivative(cand.fields[getattr(g, "dep", g).name], getattr(g, "suffix", ""))
        for g in occurring
    }
    label, eq = problem.system.equations[0]
    assert (label, str(eq)) == ("g1", "u_t + beta*u_x - gamma*v_xx + delta*v*(u^2 + v^2)")
    for e in (eq, *(var(g) for g in occurring)):
        got, expected = _values(e, ctx, jets), _values(e, ctx, want)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), e
    assert np.abs(_values(ctx.parse("gamma*v_xx"), ctx, want)).max() > 0.1


def test_candidate_bindings_follow_the_system_order(problem):
    text = bundled_problem_text().replace(
        "g1 = u_t + beta*u_x", "g1 = u_t + u_xxx + beta*u_x"
    ).replace("u_t = -beta*u_x", "u_t = -u_xxx - beta*u_x")
    third = load_problem_text(text, "third.prob")
    oracle = pytest.importorskip("sympy_jets").SympyJets(third.ctx)
    cand = {c.label: c for c in third.candidates}["case1-linear-phase"]
    third_jets = candidate_jets(cand, third.system)
    bundled_jets = candidate_jets(cand, problem.system)
    assert _only_base_variables(third_jets.values())
    # the third-order system binds exactly one more jet, u_xxx
    u_xxx = third.ctx.jet("u", "xxx")
    assert set(third_jets) - set(bundled_jets) == {u_xxx}
    want = _values(oracle.total_derivative(cand.fields["u"], "xxx"), third.ctx)
    assert np.allclose(_values(var(u_xxx), third.ctx, third_jets), want, rtol=1e-12, atol=1e-12)
    # the third-order g1 gains exactly the image of u_xxx
    (_, third_g1), (_, bundled_g1) = third.system.equations[0], problem.system.equations[0]
    gained = _values(third_g1, third.ctx, third_jets) - _values(bundled_g1, problem.ctx, bundled_jets)
    assert np.allclose(gained, want, rtol=1e-12, atol=1e-12)
    assert np.abs(want).max() > 0.1
