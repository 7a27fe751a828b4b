from __future__ import annotations

import math

import numpy as np
import pytest

from nlseverify.numerics import (
    Audit,
    BlowupError,
    FieldState,
    Grid,
    QuantitySeries,
    Workspace,
    candidate_start,
    compile_on_grid,
    conserved_quantity,
    evolution_program,
    random_trig_state,
    run,
    step_rk4,
    suggested_dt,
)
from nlseverify.problem import bundled_problem_text, load_problem_text
from reference_states import (
    case1_steady_state,
    plane_wave_exact,
    rotate_state,
    stencil_mu,
    stencil_nu,
)

PARAMS = {"beta": 1.0, "gamma": 0.5, "delta": 1.0}


def state_err(a: FieldState, b: FieldState) -> float:
    return float(max(np.max(np.abs(f - g)) for f, g in zip(a.fields, b.fields)))


def workspace(state: FieldState) -> Workspace:
    return Workspace(state.grid, len(state.fields))


def step(state: FieldState, system, params, dt: float) -> FieldState:
    return step_rk4(state, evolution_program(system, params, workspace(state)), dt)


def quantity(density, state: FieldState, system, params=PARAMS) -> float:
    (values,) = compile_on_grid((density,), system, params, workspace(state))(state)
    return conserved_quantity(values, state.grid)


def audited_run(state: FieldState, problem, params, dt: float, steps: int) -> QuantitySeries:
    """The conserved-quantity series of a run sampled every ten steps."""
    audit = Audit(problem.quantity_densities(), problem.system, params, state)
    run(state, problem.system, params, dt, steps, audit, sample_every=10)
    return audit.series


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 1.0)
    for length in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(64, length)
    with pytest.raises(ValueError, match="squares to zero"):
        Grid(256, 1e-300)
    g = Grid(64, 2.0 * math.pi)
    assert g.dx == 2.0 * math.pi / 64
    assert g.x.shape == (64,)


def test_stencil_symbols_are_exact_on_grid_modes(system):
    g = Grid(64, 2.0 * math.pi)
    k = 3.0
    state = FieldState(g, 0.0, (np.sin(k * g.x), np.zeros(g.n)))
    jets = tuple(map(system.ctx.parse, ("u_x", "u_xx")))
    d1, d2 = compile_on_grid(jets, system, PARAMS, workspace(state))(state)
    assert np.max(np.abs(d1 - stencil_nu(k, g.dx) * np.cos(k * g.x))) < 1e-12
    assert np.max(np.abs(d2 + stencil_mu(k, g.dx) * np.sin(k * g.x))) < 1e-10


def test_stencil_symbols_are_fourth_order():
    g = Grid(64, 2.0 * math.pi)
    k = 2.0
    assert abs(stencil_nu(k, g.dx) - k) < k**5 * g.dx**4 / 20.0
    assert abs(stencil_mu(k, g.dx) - k * k) < k**6 * g.dx**4 / 60.0


def test_one_step_against_semi_discrete_solution(system):
    grid = Grid(256, 2.0 * math.pi)
    a, k, dt = 0.5, 1.0, 1e-3
    s0 = plane_wave_exact(grid, a, k, 0.0, PARAMS, dispersion="discrete")
    s1 = step(s0, system, PARAMS, dt)
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
    s1 = step(s0, transport, PARAMS, dt)
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
    s1 = step(FieldState(grid, t0, (np.zeros(grid.n), np.zeros(grid.n))), clock, {}, dt)
    assert np.max(np.abs(s1.fields[0] - ((t0 + dt) ** 4 - t0**4))) < 1e-15
    assert s1.t == t0 + dt


def test_rk4_is_fourth_order_in_time(system):
    grid = Grid(256, 4.0 * math.pi)
    a, k, horizon = 0.5, 8.0, 0.1
    errs = {}
    for dt in (4e-4, 2e-4):
        final = run(
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
        final = run(
            plane_wave_exact(g, a, k, 0.0, PARAMS), system, PARAMS, dt, round(horizon / dt)
        )
        exact = plane_wave_exact(g, a, k, final.t, PARAMS, dispersion="continuum")
        errs[n] = state_err(final, exact)
    ratio = errs[128] / errs[256]
    assert 14.0 <= ratio <= 18.0, ratio


def test_plane_wave_conserves_all_four_quantities(problem):
    grid = Grid(256, 4.0 * math.pi)
    state = plane_wave_exact(grid, 0.5, 1.0, 0.0, PARAMS)
    series = audited_run(state, problem, PARAMS, 1e-3, 1000)
    for label in ("Q1", "Q2", "Q3", "Q4"):
        assert series.drift(label) < 1e-6, label


def test_plane_wave_quantities_match_stencil_values(problem):
    """Q1 sees the discrete wavenumber nu(k), not k itself."""
    grid = Grid(256, 4.0 * math.pi)
    a, k = 0.5, 1.0
    state = plane_wave_exact(grid, a, k, 0.0, PARAMS)
    dens = problem.quantity_densities()
    q1 = quantity(dens["Q1"], state, problem.system)
    q2 = quantity(dens["Q2"], state, problem.system)
    assert abs(q1 - 0.5 * a * a * stencil_nu(k, grid.dx) * grid.length) < 1e-12
    assert abs(q2 - 0.5 * a * a * grid.length) < 1e-12


def case1_candidate(problem):
    return {c.label: c for c in problem.candidates}["case1-linear-phase"]


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_case1_start_is_the_closed_form(problem, n):
    """The file's case1-linear-phase candidate at t = 0, with its
    constraints applied, is the closed-form profile bit for bit."""
    grid = Grid(n, 2.0 * math.pi)
    cand = case1_candidate(problem)
    start, params = candidate_start(cand, problem.system, problem.param_values, grid)
    assert params == {**problem.param_values, "c": 0.0, "gamma": 0.0}
    closed = case1_steady_state(grid, params, c1=params["c1"])
    assert [f.tobytes() for f in start.fields] == [f.tobytes() for f in closed.fields]


def test_case1_profile_is_steady(problem):
    params = {"beta": 1.0, "gamma": 0.0, "delta": 1.0, "eps": 1.0, "c1": 0.0}
    grid = Grid(64, 2.0 * math.pi)
    start, params = candidate_start(case1_candidate(problem), problem.system, params, grid)
    audit = Audit(problem.quantity_densities(), problem.system, params, start)
    final = run(start, problem.system, params, 1e-3, 200, audit, sample_every=10)
    series = audit.series
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
    mid = step(state, system, PARAMS, dt)
    after = step(mid, system, PARAMS, dt)
    slope = (quantity(dens["Q4"], after, system) - quantity(dens["Q4"], state, system)) / (2.0 * dt)
    (flux,) = compile_on_grid((t2.flux,), system, PARAMS, workspace(mid))(mid)
    predicted = -grid.length * float(np.asarray(flux)[0])
    assert abs(slope - predicted) / abs(predicted) < 1e-10
    # Continuum value of the same quantity: L*(2*gamma*k - beta)*a^2/2.
    closed = grid.length * (2.0 * 0.5 * 2.0 - 1.0) * 0.25 / 2.0
    assert abs(slope - closed) / abs(closed) < 1e-4


def test_random_data_conserves_the_local_quantities(problem):
    grid = Grid(256, 4.0 * math.pi)
    state = random_trig_state(grid, seed=11)
    series = audited_run(state, problem, PARAMS, 1e-3, 250)
    for label in ("Q1", "Q2", "Q3"):
        assert series.drift(label) < 1e-6, label
    assert series.drift("Q4") > 1e-3


def test_rotation_commutes_with_the_flow(system):
    grid = Grid(128, 4.0 * math.pi)
    state = random_trig_state(grid, seed=5)
    angle = 0.83
    direct = run(rotate_state(state, angle), system, PARAMS, 1e-3, 100)
    rotated_after = run(state, system, PARAMS, 1e-3, 100)
    assert state_err(direct, rotate_state(rotated_after, angle)) < 1e-12


def test_half_amplitude_integral_values(problem):
    """The t2 density integrates to pi/2 for (sin, 0) data on a circle of
    length 2*pi, and to pi for (sin, cos) data."""
    grid = Grid(64, 2.0 * math.pi)
    dens = problem.quantity_densities()["Q2"]
    lone = FieldState(grid, 0.0, (np.sin(grid.x), np.zeros(grid.n)))
    both = FieldState(grid, 0.0, (np.sin(grid.x), np.cos(grid.x)))
    assert abs(quantity(dens, lone, problem.system) - math.pi / 2.0) < 1e-12
    assert abs(quantity(dens, both, problem.system) - math.pi) < 1e-12


def test_unstable_step_raises_blowup(system):
    grid = Grid(256, 2.0 * math.pi)
    state = FieldState(grid, 0.0, (0.1 * np.cos(128.0 * grid.x), np.zeros(grid.n)))
    rules = evolution_program(system, PARAMS, workspace(state))
    with pytest.raises(BlowupError):
        for _ in range(60):
            state = step_rk4(state, rules, 1e-3)


def test_suggested_dt_is_stable_for_rk4(system):
    grid = Grid(256, 2.0 * math.pi)
    dt = suggested_dt(grid, system, PARAMS)
    z = PARAMS["gamma"] * stencil_mu(math.pi / grid.dx, grid.dx) * dt
    assert z < 2.0 * math.sqrt(2.0)


def test_suggested_dt_reads_the_dispersion_off_the_rules(system):
    """The coefficient of the second-order spatial jets sets the step,
    whatever the parameter is called."""
    renamed = load_problem_text(
        bundled_problem_text().replace("gamma", "kappa"), "kappa.prob"
    ).system
    grid = Grid(256, 2.0 * math.pi)
    params = {"beta": 1.0, "kappa": 0.5, "delta": 1.0}
    assert suggested_dt(grid, renamed, params) == suggested_dt(grid, system, PARAMS)
    wider = suggested_dt(grid, renamed, {**params, "kappa": -2.0})
    assert wider == pytest.approx(suggested_dt(grid, system, PARAMS) / 4.0)
    z = 2.0 * stencil_mu(math.pi / grid.dx, grid.dx) * wider
    assert z < 2.0 * math.sqrt(2.0)
    # gamma names no coefficient of the renamed rules
    assert suggested_dt(grid, renamed, {**params, "gamma": 100.0}) == suggested_dt(
        grid, renamed, params
    )


def test_grid_programs_reject_time_jets(problem):
    density = problem.ctx.parse("u_t*v")
    with pytest.raises(ValueError, match="time derivative u_t"):
        compile_on_grid((density,), problem.system, PARAMS, Workspace(Grid(16, 1.0), 2))


def test_fused_densities_refuse_the_first_density_time_jet(problem):
    """The densities compile into one program, yet the time derivative
    refused is the first of the first density that has one, as when each
    density was compiled alone."""
    parse = problem.ctx.parse
    densities = {"Q1": parse("u^2"), "Q2": parse("u*v_t"), "Q3": parse("u_t*v")}
    start = plane_wave_exact(Grid(16, 1.0), 0.5, 1.0, 0.0, PARAMS)
    with pytest.raises(ValueError, match="time derivative v_t;"):
        Audit(densities, problem.system, PARAMS, start)


def test_random_state_requires_periodic_wavenumbers():
    grid = Grid(64, 5.0)
    with pytest.raises(ValueError):
        random_trig_state(grid, seed=1)


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


@pytest.mark.parametrize("nan_first", [False, True])
def test_a_nan_anywhere_is_the_largest_magnitude(nan_first):
    """A Python ``max`` kept the finite maximum when the nan came second."""
    grid = Grid(16, 1.0)
    fields = (np.ones(grid.n), np.full(grid.n, np.nan))
    state = FieldState(grid, 0.0, fields[::-1] if nan_first else fields)
    assert math.isnan(state.max_abs(np.empty(grid.n)))


def test_a_nan_sample_makes_the_drift_nan():
    series = QuantitySeries(("Q1",))
    for t, q in ((0.0, 2.0), (0.1, math.nan), (0.2, 2.0)):
        series.record(t, {"Q1": q})
    assert math.isnan(series.drift("Q1"))
