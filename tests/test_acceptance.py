"""End-to-end checks of the package's headline guarantees.

Each test covers one acceptance criterion and prints a single
``[acceptance N] <name>: PASS`` (or FAIL) line straight to the terminal,
so a verbose run doubles as a checklist.  The checks intentionally overlap
the unit suite: this file is the gate, the unit files are the diagnosis.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

import numpy as np

from conftest import random_expr
from nlseverify.exprs import Context, add, mul, render, sub, var
from nlseverify.jets import (
    VectorField,
    apply_field,
    association_residual,
    divergence_match,
    euler_operator,
    multiplier_condition,
    prolong,
    symmetry_invariance,
    total_derivative,
)
from nlseverify.normal import normalize
from nlseverify.numerics import Grid, plane_wave_exact, run
from nlseverify.reduction import classify


@contextlib.contextmanager
def criterion(capsys, number: int, name: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance {number}] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance {number}] {name}: PASS")


def test_acceptance_1_multiplier_identities(capsys, problem, system):
    with criterion(capsys, 1, "multiplier pairs pass the Euler criterion"):
        start = time.perf_counter()
        assert len(problem.multipliers) == 4
        for pair in problem.multipliers:
            res = multiplier_condition(system, pair)
            assert set(res) == {"u", "v"}
            assert all(nf.is_zero for nf in res.values()), pair.label
        assert time.perf_counter() - start < 5.0


def test_acceptance_2_divergence_matches(capsys, problem, printed_problem):
    with criterion(capsys, 2, "conserved vectors realize their multipliers"):
        for pair, vec in zip(problem.multipliers, problem.conserved):
            assert divergence_match(problem.system, pair, vec).is_zero, vec.label
        # The uncorrected variant layer must fail for the energy pair with
        # exactly the cubic defect delta*v*(u^2 + v^2)*(1 - u).
        psys = printed_problem.system
        res = divergence_match(
            psys, printed_problem.multipliers[1], printed_problem.conserved[1]
        )
        assert not res.is_zero
        want = normalize(printed_problem.ctx.parse("delta*v*(u^2 + v^2)*(1 - u)"))
        assert res == want
        assert render(res.to_expr()) == (
            "-u^3*v*delta - u*v^3*delta + v^3*delta + u^2*v*delta"
        )


def test_acceptance_3_symmetry_invariance(capsys, problem, system):
    with criterion(capsys, 3, "point symmetry generators hold on shell"):
        assert [f.label for f in problem.symmetries] == ["x1", "x2", "x3", "x4", "x5"]
        for fieldv in problem.symmetries:
            res = symmetry_invariance(system, fieldv)
            assert set(res) == {"g1", "g2"}
            assert all(nf.is_zero for nf in res.values()), fieldv.label
        broken = VectorField("broken", eta={"u": var(system.ctx["u"])})
        res = symmetry_invariance(system, broken)
        assert not all(nf.is_zero for nf in res.values())


ASSOCIATED = {
    ("x1", "t1"), ("x1", "t2"), ("x1", "t3"),
    ("x2", "t1"), ("x2", "t2"), ("x2", "t3"),
    ("x3", "t1"), ("x3", "t2"), ("x3", "t3"), ("x3", "t4"),
    ("x4", "t2"), ("x4", "t4"),
    ("x5", "t4"),
}


def association_matrix(problem):
    out = {}
    for fieldv in problem.symmetries:
        for vec in problem.conserved:
            res = association_residual(problem.system, fieldv, vec)
            out[(fieldv.label, vec.label)] = (res["t"], res["x"])
    return out


def test_acceptance_4_association_matrix(capsys, problem):
    with criterion(capsys, 4, "association matrix is reproducible"):
        first = association_matrix(problem)
        second = association_matrix(problem)
        assert first == second
        passed = {
            pair for pair, comps in first.items() if all(nf.is_zero for nf in comps)
        }
        assert ("x1", "t2") in passed
        assert ("x3", "t2") in passed
        assert passed == ASSOCIATED


def test_acceptance_5_reduction(capsys, problem, transform, ode):
    with criterion(capsys, 5, "canonical reduction yields the profile factors"):
        red = transform.red_ctx
        assert normalize(sub(transform.jac_det, red.parse("1"))).is_zero
        t2 = problem.conserved[1]
        comps = transform.transform_conserved(t2.density, t2.flux)
        assert comps["s"] == normalize(red.parse("w^2/2"))
        expected = red.parse(
            "eps*(-c*sin(2*p + 2*c*s) - beta*p_r*sin(2*p + 2*c*s)"
            " + gamma*p_r^2*sin(2*p + 2*c*s) + delta*eps*sin(2*p + 2*c*s)"
            " - gamma*p_rr*cos(2*p + 2*c*s))"
        )
        assert ode.residual == normalize(expected)
        assert all(nf.is_zero for nf in ode.factorization_residuals().values())


def test_acceptance_6_candidate_classification(capsys, problem, system):
    with criterion(capsys, 6, "closed-form candidates adjudicate correctly"):
        reports = {
            r.candidate.label: r for r in classify(system, problem.candidates, seed=7)
        }
        for label in ("case1-linear-phase", "case3-travel-phase"):
            rep = reports[label]
            assert rep.adjudicated and rep.verdict == "exact"
            assert all(d.eq_residual < 1e-10 for d in rep.draws)
        constants = (
            "case1-const-u", "case1-const-vneg", "case1-const-vpos",
            "case2-const-u", "case2-const-vneg", "case2-const-vpos",
        )
        for label in constants:
            rep = reports[label]
            assert rep.adjudicated and rep.verdict == "reduced-only"
            for draw in rep.draws:
                want = draw.params["delta"] * draw.params["eps"] ** 1.5
                assert abs(draw.eq_residual - want) / want < 1e-8
                assert draw.reduced_residual < 1e-10
        for label in ("case3-const-u", "case3-const-vneg", "case3-const-vpos"):
            assert not reports[label].adjudicated


def test_acceptance_7_conservation_audit_and_order(capsys, problem):
    with criterion(capsys, 7, "plane-wave audit conserves all four quantities"):
        start = time.perf_counter()
        params = {"beta": 1.0, "gamma": 0.5, "delta": 1.0}
        grid = Grid(256, 4.0 * math.pi)
        state = plane_wave_exact(grid, 0.5, 1.0, 0.0, params)
        _, series = run(
            state,
            problem.system,
            params,
            1e-3,
            1000,
            problem.quantity_densities(),
            sample_every=10,
        )
        for label in ("Q1", "Q2", "Q3", "Q4"):
            assert series.drift(label) < 1e-6, label
        # Fourth order in time: halving dt against the semi-discrete plane
        # wave (zero spatial error) must cut the error by about 2^4.
        errs = {}
        for dt in (4e-4, 2e-4):
            final, _ = run(
                plane_wave_exact(grid, 0.5, 8.0, 0.0, params),
                problem.system,
                params,
                dt,
                round(0.1 / dt),
            )
            exact = plane_wave_exact(grid, 0.5, 8.0, final.t, params, "discrete")
            errs[dt] = float(
                max(np.max(np.abs(final.u - exact.u)), np.max(np.abs(final.v - exact.v)))
            )
        ratio = errs[4e-4] / errs[2e-4]
        assert 14.0 <= ratio <= 18.0, ratio
        assert time.perf_counter() - start < 60.0


def test_acceptance_8_calculus_invariants(capsys, problem):
    with criterion(capsys, 8, "jet calculus invariants hold on random input"):
        ctx = Context(("t", "x"), ("u", "v"), ("beta",), max_order=6)
        t, x = ctx["t"], ctx["x"]
        gens = [
            ctx["t"], ctx["x"], ctx["u"], ctx["v"], ctx["beta"],
            ctx.jet("u", "x"), ctx.jet("u", "t"), ctx.jet("v", "x"),
        ]
        rng = random.Random(515)
        for _ in range(10):
            e = random_expr(rng, gens, 3)
            tx = total_derivative(total_derivative(e, t, ctx), x, ctx)
            xt = total_derivative(total_derivative(e, x, ctx), t, ctx)
            assert normalize(sub(tx, xt)).is_zero
        for _ in range(4):
            f, g = random_expr(rng, gens, 2), random_expr(rng, gens, 2)
            lhs = total_derivative(mul(f, g), x, ctx)
            rhs = add(
                mul(total_derivative(f, x, ctx), g),
                mul(f, total_derivative(g, x, ctx)),
            )
            assert normalize(sub(lhs, rhs)).is_zero
        for _ in range(5):
            a, b = random_expr(rng, gens, 2), random_expr(rng, gens, 2)
            div = add(total_derivative(a, t, ctx), total_derivative(b, x, ctx))
            for dep in ("u", "v"):
                assert normalize(euler_operator(div, ctx[dep], ctx)).is_zero
        # Prolongation acts linearly in the generating field.
        pctx = problem.ctx
        x4, x5 = problem.symmetries[3], problem.symmetries[4]
        combined = VectorField(
            "x4-plus-x5",
            xi={n.name: add(x4.xi_of(n), x5.xi_of(n)) for n in pctx.independents},
            eta={n.name: add(x4.eta_of(n), x5.eta_of(n)) for n in pctx.dependents},
        )
        p4 = prolong(x4, 2, pctx)
        p5 = prolong(x5, 2, pctx)
        pc = prolong(combined, 2, pctx)
        pgens = [
            pctx["t"], pctx["x"], pctx["u"], pctx["v"], pctx["beta"],
            pctx.jet("u", "x"), pctx.jet("v", "t"), pctx.jet("u", "tx"),
        ]
        for _ in range(4):
            e = random_expr(rng, pgens, 2)
            combined_action = apply_field(pc, e, pctx)
            split_action = add(apply_field(p4, e, pctx), apply_field(p5, e, pctx))
            assert normalize(sub(combined_action, split_action)).is_zero
