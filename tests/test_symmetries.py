from __future__ import annotations

import pytest

from conftest import FOURTH_ORDER_SYMMETRIES
from nlseverify.exprs import add, mul, neg, render, var
from nlseverify.jets import VectorField, apply_field, prolong, symmetry_invariance
from nlseverify.normal import as_form, normalize
from nlseverify.problem import load_problem_text

SYM_IDS = ["x1", "x2", "x3", "x4", "x5"]


@pytest.mark.parametrize("idx", range(5), ids=SYM_IDS)
def test_generators_leave_system_invariant(problem, system, idx):
    res = symmetry_invariance(system, problem.symmetries[idx])
    assert set(res) == {"g1", "g2"}
    assert all(nf.is_zero for nf in res.values())


def test_broken_generator_is_rejected(problem, system):
    broken = VectorField("broken", {}, {"u": var(problem.ctx["u"])})
    res = symmetry_invariance(system, broken)
    assert any(not nf.is_zero for nf in res.values())


def test_characteristic_identities_off_shell(problem, system):
    """Each generator maps the equations into their own span, identically.

    No use of the evolution form here: these are polynomial identities,
    and they imply on-shell invariance.  The factors were worked out by
    hand; sigma = x - beta*t.
      x1, x2: annihilate both equations.
      x3:     g1 -> g2, g2 -> -g1  (internal rotation).
      x4:     g1 -> -sigma*g2, g2 -> sigma*g1.
      x5:     g -> -3*g           (scaling weight).
    """
    ctx = problem.ctx
    (_, g1), (_, g2) = system.equations
    x1, x2, x3, x4, x5 = problem.symmetries
    sigma = ctx.parse("x - beta*t")

    def act(fieldv, e):
        return normalize(apply_field(prolong(fieldv, ctx), as_form(e))).to_expr()

    zero_cases = [
        act(x1, g1),
        act(x1, g2),
        act(x2, g1),
        act(x2, g2),
        add(act(x3, g1), neg(g2)),
        add(act(x3, g2), g1),
        add(act(x4, g1), mul(sigma, g2)),
        add(act(x4, g2), neg(mul(sigma, g1))),
        add(act(x5, g1), mul(3, g1)),
        add(act(x5, g2), mul(3, g2)),
    ]
    for e in zero_cases:
        assert normalize(e).is_zero


def test_invariance_breaks_on_printed_system(printed_problem):
    """Against the misprinted g2, the rotation and scaling symmetries fail."""
    res3 = symmetry_invariance(printed_problem.system, printed_problem.symmetries[2])
    res5 = symmetry_invariance(printed_problem.system, printed_problem.symmetries[4])
    assert any(not nf.is_zero for nf in res3.values())
    assert any(not nf.is_zero for nf in res5.values())
    want = printed_problem.ctx.parse("delta*(u^2 + v^2)")
    assert res5["g2"] == normalize(want)


def test_translations_pass_even_when_printed(printed_problem):
    for idx in (0, 1):
        res = symmetry_invariance(printed_problem.system, printed_problem.symmetries[idx])
        assert all(nf.is_zero for nf in res.values())


def test_fourth_order_point_symmetries():
    """A fourth-order equation's prolongation derives each coefficient g1
    reads and stops at none: only the fields that break it fail."""
    problem = load_problem_text(FOURTH_ORDER_SYMMETRIES, "fourth-order.prob")
    got = {}
    for fieldv in problem.symmetries:
        res = symmetry_invariance(problem.system, fieldv)
        got[fieldv.label] = {k: render(nf.to_expr()) for k, nf in res.items() if not nf.is_zero}
    assert got == {
        "x1": {}, "x2": {}, "x3": {}, "x4": {},
        "x5": {"g1": "(-2)*u_xxxx"}, "x6": {"g1": "-u_x"},
    }
