"""The RK4 step that writes into a run's workspace against the allocating
step of ``tests/reference_states.py``: the same bytes after twenty steps,
whatever the slopes alias, and a bounded allocation per step."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from nlseverify.numerics import (
    FieldState,
    Grid,
    Workspace,
    evolution_program,
    random_trig_state,
    step_rk4,
)
from nlseverify.problem import load_problem, load_problem_text
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
        reference = reference_states.step_rk4(reference, rules, dt)
        assert state.t == reference.t
        assert [f.tobytes() for f in state.fields] == [f.tobytes() for f in reference.fields]


def test_a_returned_state_outlives_later_steps():
    system = load_problem().system
    grid = Grid(256, 4.0 * math.pi)
    rules = evolution_program(system, PARAMS, Workspace(grid, len(system.ctx.dependents)))
    earlier = step_rk4(start(grid, 2), rules, 1e-3)
    kept = [f.copy() for f in earlier.fields]
    later = step_rk4(step_rk4(earlier, rules, 1e-3), rules, 1e-3)
    assert [f.tobytes() for f in earlier.fields] == [f.tobytes() for f in kept]
    assert not any(np.shares_memory(f, g) for f in earlier.fields for g in later.fields)


def test_one_step_allocates_at_most_ten_fields():
    """numpy reports its buffers to tracemalloc: after a warm-up step, one
    more step of the bundled rules at N = 4096 may hold at most ten arrays
    of n floats at once, the two fields it returns included."""
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
    assert arrays <= 10.0, f"one step held {arrays:.1f} arrays of n floats"
