from __future__ import annotations

import math

import numpy as np
import pytest

from nlseverify.exprs import collect_refs, eval_numeric
from nlseverify.numerics import (
    BlowupError,
    FieldState,
    Grid,
    QuantitySeries,
    case1_steady_state,
    conserved_quantity,
    deriv1,
    deriv2,
    grid_bindings,
    plane_wave_exact,
    random_trig_state,
    rotate_state,
    run,
    stencil_mu,
    stencil_nu,
    step_rk4,
    suggested_dt,
)
from nlseverify.problem import load_problem_text

PARAMS = {"beta": 1.0, "gamma": 0.5, "delta": 1.0}


def state_err(a: FieldState, b: FieldState) -> float:
    return float(max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.v - b.v))))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 1.0)
    with pytest.raises(ValueError):
        Grid(64, 0.0)
    g = Grid(64, 2.0 * math.pi)
    assert g.dx == 2.0 * math.pi / 64
    assert g.x.shape == (64,)


def test_stencil_symbols_are_exact_on_grid_modes():
    g = Grid(64, 2.0 * math.pi)
    k = 3.0
    f = np.sin(k * g.x)
    assert np.max(np.abs(deriv1(f, g.dx) - stencil_nu(k, g.dx) * np.cos(k * g.x))) < 1e-12
    assert np.max(np.abs(deriv2(f, g.dx) + stencil_mu(k, g.dx) * np.sin(k * g.x))) < 1e-10


def test_stencil_symbols_are_fourth_order():
    g = Grid(64, 2.0 * math.pi)
    k = 2.0
    assert abs(stencil_nu(k, g.dx) - k) < k**5 * g.dx**4 / 20.0
    assert abs(stencil_mu(k, g.dx) - k * k) < k**6 * g.dx**4 / 60.0


def test_one_step_against_semi_discrete_solution(system):
    grid = Grid(256, 2.0 * math.pi)
    a, k, dt = 0.5, 1.0, 1e-3
    s0 = plane_wave_exact(grid, a, k, 0.0, PARAMS, dispersion="discrete")
    s1 = step_rk4(s0, system, PARAMS, dt)
    exact = plane_wave_exact(grid, a, k, dt, PARAMS, dispersion="discrete")
    assert state_err(s1, exact) < 1e-12


def test_transport_file_drives_the_step():
    """The flow is the problem file's [evolution]: a pure transport file
    ignores gamma and delta and moves the discrete plane wave rigidly."""
    transport = load_problem_text(
        "[params]\nbeta\n[independents]\nt\nx\n[dependents]\nu\nv\n"
        "[equations]\ng1 = u_t + beta*u_x\ng2 = v_t + beta*v_x\n"
        "[evolution]\nu_t = -beta*u_x\nv_t = -beta*v_x\n",
        "<transport>",
    ).system
    free = {**PARAMS, "gamma": 0.0, "delta": 0.0}
    grid = Grid(256, 2.0 * math.pi)
    a, k, dt = 0.5, 3.0, 1e-3
    s0 = plane_wave_exact(grid, a, k, 0.0, free, dispersion="discrete")
    s1 = step_rk4(s0, transport, PARAMS, dt)
    exact = plane_wave_exact(grid, a, k, dt, free, dispersion="discrete")
    assert state_err(s1, exact) < 1e-12


def test_stages_see_their_own_time():
    """u_t = 4*t^3 is integrated exactly by RK4 (Simpson's rule) only if
    each stage binds t to its stage time."""
    clock = load_problem_text(
        "[independents]\nt\nx\n[dependents]\nu\nv\n"
        "[equations]\ng1 = u_t - 4*t^3\ng2 = v_t\n"
        "[evolution]\nu_t = 4*t^3\nv_t = 0\n",
        "<clock>",
    ).system
    grid = Grid(16, 1.0)
    t0, dt = 0.5, 0.1
    s1 = step_rk4(FieldState(grid, t0, np.zeros(grid.n), np.zeros(grid.n)), clock, {}, dt)
    assert np.max(np.abs(s1.u - ((t0 + dt) ** 4 - t0**4))) < 1e-15
    assert s1.t == t0 + dt


def test_rk4_is_fourth_order_in_time(system):
    grid = Grid(256, 4.0 * math.pi)
    a, k, horizon = 0.5, 8.0, 0.1
    errs = {}
    for dt in (4e-4, 2e-4):
        final, _ = run(
            plane_wave_exact(grid, a, k, 0.0, PARAMS), system, PARAMS, dt, round(horizon / dt)
        )
        exact = plane_wave_exact(grid, a, k, final.t, PARAMS, dispersion="discrete")
        errs[dt] = state_err(final, exact)
    ratio = errs[4e-4] / errs[2e-4]
    assert 14.0 <= ratio <= 18.0, ratio


def test_stencils_are_fourth_order_in_space(system):
    a, k, dt, horizon = 0.5, 4.0, 1e-4, 0.25
    errs = {}
    for n in (128, 256):
        g = Grid(n, 4.0 * math.pi)
        final, _ = run(
            plane_wave_exact(g, a, k, 0.0, PARAMS), system, PARAMS, dt, round(horizon / dt)
        )
        exact = plane_wave_exact(g, a, k, final.t, PARAMS, dispersion="continuum")
        errs[n] = state_err(final, exact)
    ratio = errs[128] / errs[256]
    assert 14.0 <= ratio <= 18.0, ratio


def test_plane_wave_conserves_all_four_quantities(problem):
    grid = Grid(256, 4.0 * math.pi)
    state = plane_wave_exact(grid, 0.5, 1.0, 0.0, PARAMS)
    _, series = run(
        state, problem.system, PARAMS, 1e-3, 1000, problem.quantity_densities(), sample_every=10
    )
    for label in ("Q1", "Q2", "Q3", "Q4"):
        assert series.drift(label) < 1e-6, label


def test_plane_wave_quantities_match_stencil_values(problem):
    """Q1 sees the discrete wavenumber nu(k), not k itself."""
    grid = Grid(256, 4.0 * math.pi)
    a, k = 0.5, 1.0
    state = plane_wave_exact(grid, a, k, 0.0, PARAMS)
    dens = problem.quantity_densities()
    q1 = conserved_quantity(dens["Q1"], state, problem.system, PARAMS)
    q2 = conserved_quantity(dens["Q2"], state, problem.system, PARAMS)
    assert abs(q1 - 0.5 * a * a * stencil_nu(k, grid.dx) * grid.length) < 1e-12
    assert abs(q2 - 0.5 * a * a * grid.length) < 1e-12


def test_case1_profile_is_steady(problem):
    params = {"beta": 1.0, "gamma": 0.0, "delta": 1.0, "eps": 1.0}
    grid = Grid(64, 2.0 * math.pi)
    start = case1_steady_state(grid, params)
    final, series = run(
        start, problem.system, params, 1e-3, 200, problem.quantity_densities(), sample_every=10
    )
    assert state_err(final, start) < 1e-5
    for label in ("Q1", "Q2", "Q3"):
        assert series.drift(label) < 1e-12, label
    # The moment quantity is not conserved on a periodic domain: its flux
    # carries x explicitly, so the boundary terms do not cancel.
    assert series.drift("Q4") > 1e-3


def test_moment_drift_rate_matches_boundary_flux(problem):
    """dQ4/dt = -L * (flux of t2 at x = 0), measured against a centered
    difference of the integrator.  Two independent routes, one number."""
    t2 = problem.conserved[1]
    dens = problem.quantity_densities()
    system = problem.system
    grid = Grid(256, 4.0 * math.pi)
    state = plane_wave_exact(grid, 0.5, 2.0, 0.0, PARAMS)
    dt = 1e-3
    mid = step_rk4(state, system, PARAMS, dt)
    after = step_rk4(mid, system, PARAMS, dt)
    slope = (
        conserved_quantity(dens["Q4"], after, system, PARAMS)
        - conserved_quantity(dens["Q4"], state, system, PARAMS)
    ) / (2.0 * dt)
    flux = eval_numeric(t2.flux, grid_bindings(mid, system, PARAMS, collect_refs(t2.flux)))
    predicted = -grid.length * float(np.asarray(flux)[0])
    assert abs(slope - predicted) / abs(predicted) < 1e-10
    # Continuum value of the same quantity: L*(2*gamma*k - beta)*a^2/2.
    closed = grid.length * (2.0 * 0.5 * 2.0 - 1.0) * 0.25 / 2.0
    assert abs(slope - closed) / abs(closed) < 1e-4


def test_random_data_conserves_the_local_quantities(problem):
    grid = Grid(256, 4.0 * math.pi)
    state = random_trig_state(grid, seed=11)
    _, series = run(
        state, problem.system, PARAMS, 1e-3, 250, problem.quantity_densities(), sample_every=10
    )
    for label in ("Q1", "Q2", "Q3"):
        assert series.drift(label) < 1e-6, label
    assert series.drift("Q4") > 1e-3


def test_rotation_commutes_with_the_flow(system):
    grid = Grid(128, 4.0 * math.pi)
    state = random_trig_state(grid, seed=5)
    angle = 0.83
    direct, _ = run(rotate_state(state, angle), system, PARAMS, 1e-3, 100)
    rotated_after, _ = run(state, system, PARAMS, 1e-3, 100)
    assert state_err(direct, rotate_state(rotated_after, angle)) < 1e-12


def test_half_amplitude_integral_values(problem):
    """The t2 density integrates to pi/2 for (sin, 0) data on a circle of
    length 2*pi, and to pi for (sin, cos) data."""
    grid = Grid(64, 2.0 * math.pi)
    dens = problem.quantity_densities()["Q2"]
    lone = FieldState(grid, 0.0, np.sin(grid.x), np.zeros(grid.n))
    both = FieldState(grid, 0.0, np.sin(grid.x), np.cos(grid.x))
    assert abs(conserved_quantity(dens, lone, problem.system, PARAMS) - math.pi / 2.0) < 1e-12
    assert abs(conserved_quantity(dens, both, problem.system, PARAMS) - math.pi) < 1e-12


def test_unstable_step_raises_blowup(system):
    grid = Grid(256, 2.0 * math.pi)
    state = FieldState(grid, 0.0, 0.1 * np.cos(128.0 * grid.x), np.zeros(grid.n))
    with pytest.raises(BlowupError):
        for _ in range(60):
            state = step_rk4(state, system, PARAMS, 1e-3)


def test_suggested_dt_is_stable_for_rk4():
    grid = Grid(256, 2.0 * math.pi)
    dt = suggested_dt(grid, PARAMS)
    z = PARAMS["gamma"] * stencil_mu(math.pi / grid.dx, grid.dx) * dt
    assert z < 2.0 * math.sqrt(2.0)


def test_grid_bindings_reject_time_jets(problem):
    grid = Grid(64, 2.0 * math.pi)
    state = FieldState(grid, 0.0, np.zeros(grid.n), np.zeros(grid.n))
    density = problem.ctx.parse("u_t*v")
    with pytest.raises(ValueError):
        grid_bindings(state, problem.system, PARAMS, collect_refs(density))


def test_random_state_requires_periodic_wavenumbers():
    grid = Grid(64, 2.0 * math.pi)
    with pytest.raises(ValueError):
        random_trig_state(grid, seed=1, wavenumbers=(0.5,), amplitudes=(0.1,))


def test_series_drift_and_csv():
    series = QuantitySeries(("Q1", "Q2"))
    series.record(0.0, {"Q1": 2.0, "Q2": 0.5})
    series.record(0.1, {"Q1": 2.5, "Q2": 0.6})
    assert series.drift("Q1") == 0.25
    assert abs(series.drift("Q2") - 0.1) < 1e-15
    text = series.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "time,Q1,Q2"
    assert len(lines) == 3
    assert [float(f) for f in lines[2].split(",")] == [0.1, 2.5, 0.6]
