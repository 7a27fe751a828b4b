"""The RK4 step that writes into a run's workspace against the allocating
step of ``tests/reference_states.py``, which walks the rules' trees: the
same bytes after twenty steps, whatever the slopes alias, and no array
allocated per step but the fields it returns."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from nlseverify import cli
from nlseverify.exprs import Pow
from nlseverify.numerics import (
    Audit,
    FieldState,
    Grid,
    Workspace,
    evolution_program,
    random_trig_state,
    step_rk4,
)
from nlseverify.problem import load_problem, load_problem_text
from nlseverify.reduction import compile_equations
import reference_states

PARAMS = {"beta": 1.0, "gamma": 0.5, "delta": 1.0}


def system_of(evolution: str, dependents: str = "u\nv\n"):
    """A problem whose [evolution] section is ``evolution`` and whose
    equations are its rules moved to one side."""
    rules = [line.split(" = ", 1) for line in evolution.strip().splitlines()]
    equations = "".join(f"g{i} = {lhs} - ({rhs})\n" for i, (lhs, rhs) in enumerate(rules, 1))
    text = (
        f"[params]\nbeta\n[independents]\nt\nx\n[dependents]\n{dependents}"
        f"[equations]\n{equations}[evolution]\n{evolution}"
    )
    return load_problem_text(text, "<rules>").system


# (id, system, highest spatial order of the rules): dt is 0.1 * dx**order
SYSTEMS = [
    ("bundled", lambda: load_problem().system, 2),
    ("slope-is-a-stage-field", lambda: system_of("u_t = -v\nv_t = u\n"), 0),
    ("slope-is-a-jet", lambda: system_of("u_t = v_xx\nv_t = -u_xx\n"), 2),
    ("scalar-slopes", lambda: system_of("u_t = 4*t^3\nv_t = 0\n"), 0),
    ("third-order", lambda: system_of("u_t = -u_xxx - beta*u_x\n", "u\n"), 3),
    ("fourth-order", lambda: system_of("u_t = -u_xxxx\n", "u\n"), 4),
    ("functions", lambda: system_of("u_t = sin(v) - u_x\nv_t = -sin(u)*cos(v_x)\n"), 1),
]


def start(grid: Grid, count: int) -> FieldState:
    return FieldState(grid, 0.25, random_trig_state(grid, seed=7).fields[:count])


@pytest.mark.parametrize("n", [16, 256, 4096])
@pytest.mark.parametrize("make, order", [s[1:] for s in SYSTEMS], ids=[s[0] for s in SYSTEMS])
def test_workspace_step_is_the_allocating_step_bit_for_bit(make, order, n):
    system = make()
    grid = Grid(n, 4.0 * math.pi)
    dt = 0.1 * grid.dx**order
    state = reference = start(grid, len(system.ctx.dependents))
    rules = evolution_program(system, PARAMS, Workspace(grid, len(system.ctx.dependents)))
    for _ in range(20):
        state = step_rk4(state, rules, dt)
        reference = reference_states.step_rk4(reference, system, PARAMS, dt)
        assert state.t == reference.t
        assert [f.tobytes() for f in state.fields] == [f.tobytes() for f in reference.fields]


def test_five_steps_at_the_large_benchmark_size():
    system = load_problem().system
    grid = Grid(65536, 4.0 * math.pi)
    state = reference = start(grid, 2)
    rules = evolution_program(system, PARAMS, Workspace(grid, 2))
    for _ in range(5):
        state = step_rk4(state, rules, 1e-8)
        reference = reference_states.step_rk4(reference, system, PARAMS, 1e-8)
    assert [f.tobytes() for f in state.fields] == [f.tobytes() for f in reference.fields]


def test_a_zero_under_a_negative_power_is_a_domain_record(tmp_path, capsys):
    """The check before the power writes into its pool array still fails
    the step, and simulate reports it as before."""
    path = tmp_path / "inverse.prob"
    path.write_text(
        "[independents]\nt\nx\n[dependents]\nu\nv\n"
        "[equations]\ng1 = u_t - u^-1\ng2 = v_t\n[evolution]\nu_t = u^-1\nv_t = 0\n"
    )
    code = cli.main(["--problem", str(path), "simulate", "--a", "0", "--T", "0.01"])
    assert code == 2
    assert capsys.readouterr().out == (
        "simulate.domain\tplane-wave\tfail\tzero base with negative exponent in u^-1"
        "\trules defined along the trajectory\n"
    )


def exponents() -> list[int]:
    """The exponents of the bundled rules and densities and of ``SYSTEMS``,
    and negative ones."""
    problem = load_problem()
    trees = [*problem.system.evolution.values(), *problem.quantity_densities().values()]
    trees += [rule for _, make, _ in SYSTEMS for rule in make().evolution.values()]
    found, stack = {-2, -1}, trees
    while stack:
        e = stack.pop()
        if isinstance(e, Pow):
            found.add(e.exponent)
        stack.extend(getattr(e, "terms", ()) or getattr(e, "factors", ()))
        stack.extend(x for x in (getattr(e, "base", None), getattr(e, "arg", None)) if x)
    return sorted(found)


@pytest.mark.parametrize("e", exponents())
def test_a_power_into_a_pool_array_has_the_bits_of_the_operator(e):
    rng = np.random.default_rng(e + 10)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 1e200, -1e200]
    x = np.concatenate([rng.uniform(-3.0, 3.0, 4096), rng.normal(0.0, 1e5, 4096), special])
    buf = np.full_like(x, 7.0)
    with np.errstate(all="ignore"):
        want = (x**e).tobytes()
        assert np.power(x, e, out=buf).tobytes() == want
        if e == 2:
            assert np.square(x, out=buf).tobytes() == want


def test_a_returned_state_outlives_later_steps():
    system = load_problem().system
    grid = Grid(256, 4.0 * math.pi)
    rules = evolution_program(system, PARAMS, Workspace(grid, len(system.ctx.dependents)))
    earlier = step_rk4(start(grid, 2), rules, 1e-3)
    kept = [f.copy() for f in earlier.fields]
    later = step_rk4(step_rk4(earlier, rules, 1e-3), rules, 1e-3)
    assert [f.tobytes() for f in earlier.fields] == [f.tobytes() for f in kept]
    assert not any(np.shares_memory(f, g) for f in earlier.fields for g in later.fields)


def test_one_step_allocates_only_the_fields_it_returns():
    """numpy reports its buffers to tracemalloc: after a warm-up step, one
    more step of the bundled rules at N = 4096 may hold at most 2.25 arrays
    of n floats at once: the two fields it returns, and small objects (2.09
    measured)."""
    system = load_problem().system
    grid = Grid(4096, 4.0 * math.pi)
    rules = evolution_program(system, PARAMS, Workspace(grid, len(system.ctx.dependents)))
    state = step_rk4(start(grid, 2), rules, 1e-5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = step_rk4(state, rules, 1e-5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * grid.n)
    assert arrays <= 2.25, f"one step held {arrays:.2f} arrays of n floats"


def test_the_bundled_rules_and_densities_lower_to_a_pool_of_six_arrays():
    """``lower`` reuses a pool array after its value's last use: the bundled
    rules hold at most three at once, and the audit's densities, which share
    the rules' workspace, six.  Every instruction, lowered or not, is
    ``(fn, dest, a, b)``."""
    problem = load_problem()
    system, params, grid = problem.system, problem.param_values, Grid(16, 1.0)
    rules = evolution_program(system, params, Workspace(grid, 2))
    assert len(rules.work.pool) == 3
    zeros = FieldState(grid, 0.0, (np.zeros(grid.n), np.zeros(grid.n)))
    audit = Audit(problem.quantity_densities(), system, params, zeros)
    assert len(audit.work.pool) == 6
    rules = evolution_program(system, params, audit.work)
    assert len(audit.work.pool) == 6
    for program in (rules.program, audit.densities.program, compile_equations(system)):
        assert all(len(instruction) == 4 for instruction in program.code)
