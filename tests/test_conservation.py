from __future__ import annotations

import pytest

from nlseverify.exprs import add, mul, neg
from nlseverify.jets import MultiplierPair, divergence_match, multiplier_condition
from nlseverify.normal import normalize

PAIR_IDS = ["pair1", "pair2", "pair3", "pair4"]


@pytest.mark.parametrize("idx", range(4), ids=PAIR_IDS)
def test_multiplier_condition_holds(problem, system, idx):
    res = multiplier_condition(system, problem.multipliers[idx])
    assert set(res) == {"u", "v"}
    assert all(nf.is_zero for nf in res.values())


@pytest.mark.parametrize("idx", range(4), ids=PAIR_IDS)
def test_divergence_matches_combination(problem, system, idx):
    pair = problem.multipliers[idx]
    vec = problem.conserved[idx]
    assert divergence_match(system, pair, vec).is_zero


def test_fourth_vector_is_weighted_moment(problem):
    """T4 = sigma*T2 + 2*gamma*t*T1 componentwise, sigma = x - beta*t."""
    ctx = problem.ctx
    t1, t2, _, t4 = problem.conserved
    sigma = ctx.parse("x - beta*t")
    weight = ctx.parse("2*gamma*t")
    for part in ("density", "flux"):
        lhs = getattr(t4, part)
        rhs = add(mul(sigma, getattr(t2, part)), mul(weight, getattr(t1, part)))
        assert normalize(lhs) == normalize(rhs)


def test_moment_cancellation_identity(problem):
    """-beta*T2_density + T2_flux + 2*gamma*T1_density = 0 exactly.

    This is the algebraic reason the moment vector stays conserved even
    though its components carry x and t explicitly.
    """
    ctx = problem.ctx
    t1, t2 = problem.conserved[0], problem.conserved[1]
    beta, gamma = ctx.parse("beta"), ctx.parse("gamma")
    e = add(neg(mul(beta, t2.density)), t2.flux, mul(2, gamma, t1.density))
    assert normalize(e).is_zero


def test_swapped_time_multipliers_fail_with_known_residual(problem, system):
    """(u_t, v_t) is not a multiplier pair; (v_t, u_t) is.

    The Euler residual of the swapped pair is computed by hand:
      E_u = 2*delta*(u^2 - v^2)*v_t - 2*u_tt - 2*beta*u_tx
      E_v = -(2*delta*(u^2 - v^2)*u_t - 2*v_tt - 2*beta*v_tx)
    """
    ctx = problem.ctx
    swapped = MultiplierPair("pair3-swapped", (ctx.parse("u_t"), ctx.parse("v_t")))
    res = multiplier_condition(system, swapped)
    want_u = ctx.parse("2*delta*(u^2 - v^2)*v_t - 2*u_tt - 2*beta*u_tx")
    want_v = ctx.parse("-(2*delta*(u^2 - v^2)*u_t - 2*v_tt - 2*beta*v_tx)")
    assert res["u"] == normalize(want_u)
    assert res["v"] == normalize(want_v)

    repaired = problem.multipliers[2]
    assert all(nf.is_zero for nf in multiplier_condition(system, repaired).values())


def test_printed_second_pair_drops_cubic_factor(printed_problem):
    """With the printed g2 (missing a factor u on the cubic term), the
    divergence of T2 misses the combination by delta*v*(u^2+v^2)*(1-u)."""
    system = printed_problem.system
    pair2 = printed_problem.multipliers[1]
    t2 = printed_problem.conserved[1]
    res = divergence_match(system, pair2, t2)
    want = printed_problem.ctx.parse("delta*v*(u^2 + v^2)*(1 - u)")
    assert res == normalize(want)

