from __future__ import annotations

import dataclasses
import math

import pytest

from nlseverify.exprs import eval_numeric, sub
from nlseverify.normal import const_nf, nf_add, normalize
from nlseverify.reduction import (
    SolutionCandidate,
    candidate_bindings,
    candidate_equation_residuals,
    candidate_residual_exprs,
    classify,
    draw_parameters,
    low_discrepancy_points,
)


def test_jacobian_is_identity(transform):
    red = transform.red_ctx
    one, zero = red.parse("1"), red.parse("0")
    (a, b), (c, d) = transform.jac
    assert normalize(sub(a, one)).is_zero
    assert normalize(b - zero).is_zero
    assert normalize(c - zero).is_zero
    assert normalize(sub(d, one)).is_zero
    assert normalize(sub(transform.jac_det, one)).is_zero


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
def test_derivative_table(transform, name, expected):
    orig, red = transform.orig_ctx, transform.red_ctx
    if "_" in name:
        key = orig.jet(name.split("_")[0], name.split("_")[1])
    else:
        key = orig[name]
    assert normalize(transform.table[key] - red.parse(expected)).is_zero


def test_forward_map_inverts_the_table(transform):
    red = transform.red_ctx
    params = {"c": 0.7}
    bind_base = {red["c"]: 0.7}
    points = [
        (0.3, 1.2, -0.8, 0.5),
        (1.1, 0.2, 0.6, -0.9),
        (2.0, 0.0, 0.0, 1.3),
    ]
    for t, x, u, v in points:
        s, r, w, p = transform.forward_eval(t, x, u, v, params)
        assert (s, r) == (t, x)
        bind = dict(bind_base)
        bind[red["s"]], bind[red["r"]] = s, r
        bind[red["w"]], bind[red["p"]] = w, p
        u_back = eval_numeric(transform.table[transform.orig_ctx["u"]], bind)
        v_back = eval_numeric(transform.table[transform.orig_ctx["v"]], bind)
        assert abs(u_back - u) < 1e-12
        assert abs(v_back - v) < 1e-12


def test_plain_energy_transforms_cleanly(problem, transform):
    t2 = problem.conserved[1]
    red = transform.red_ctx
    out = transform.transform_conserved(t2.density, t2.flux)
    assert out["s"] == normalize(red.parse("w^2/2"))
    assert out["r"] == normalize(red.parse("beta*w^2/2 - gamma*w^2*p_r"))


def test_momentum_density_transforms_to_phase_gradient(problem, transform):
    t1 = problem.conserved[0]
    red = transform.red_ctx
    out = transform.transform_conserved(t1.density, t1.flux)
    assert out["s"] == normalize(red.parse("w^2*p_r/2"))


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
    wrong = dataclasses.replace(ode, **{factor: nf_add(getattr(ode, factor), const_nf(1))})
    residuals = wrong.factorization_residuals()
    assert set(residuals) == {"combination", "g1", "g2"}
    assert not any(nf.is_zero for nf in residuals.values())


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
        assert rep.adjudicated == adjudicated
        assert len(rep.draws) == 3


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


def test_const_phase_candidate_residual_laws(problem, system):
    cand = {c.label: c for c in problem.candidates}["case2-const-phase"]
    params = {"beta": 0.0, "gamma": 1.1, "delta": 1.3, "c": 0.0, "eps": 0.7, "c1": 0.9}
    points = low_discrepancy_points(50)
    eq_max, combo_max = candidate_equation_residuals(
        candidate_residual_exprs(cand, system), system, params, points
    )
    amp = 1.3 * 0.7**1.5
    assert abs(eq_max - amp * max(abs(math.sin(0.9)), abs(math.cos(0.9)))) < 1e-12
    assert abs(combo_max - 1.3 * 0.7**2 * abs(math.sin(1.8))) < 1e-12


def test_exact_candidate_is_pointwise_zero(problem, system):
    cand = {c.label: c for c in problem.candidates}["case1-linear-phase"]
    params = {"beta": 1.4, "gamma": 0.0, "delta": 0.8, "c": 0.0, "eps": 1.2, "c1": 0.3}
    eq_max, combo_max = candidate_equation_residuals(
        candidate_residual_exprs(cand, system), system, params, low_discrepancy_points(50)
    )
    assert eq_max < 1e-12
    assert combo_max < 1e-12


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


def test_candidate_bindings_reject_implicit_forms(problem):
    ctx = problem.ctx
    bad = SolutionCandidate("loop", (), ctx.parse("v"), ctx.parse("0"))
    with pytest.raises(ValueError):
        candidate_bindings(bad, ctx)


def test_candidate_bindings_cover_second_jets(problem):
    ctx = problem.ctx
    cand = {c.label: c for c in problem.candidates}["case1-linear-phase"]
    binds = candidate_bindings(cand, ctx)
    assert ctx.jet("u", "xx") in binds
    assert ctx.jet("v", "tx") in binds
    assert ctx["u"] in binds
