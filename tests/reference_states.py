"""Closed-form states of the bundled cubic system and the allocating
stencils and RK4 step, the oracles of the numerics tests.

The stencil symbols ``nu`` and ``mu`` make the semi-discrete plane wave an
exact solution of the spatially discretized cubic system, which isolates
time-integration error in convergence measurements.

``step_rk4`` here makes fresh arrays in every stencil and every RK4
combination, and evaluates the rules with the tree walk of
``tests/eval_walk.py``, not with the compiled program under test.  It does
the operations of ``numerics.step_rk4`` in the same order, so the step that
writes into a reusable workspace must match it bit for bit.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from eval_walk import eval_walk
from nlseverify.exprs import JetVar, collect_refs
from nlseverify.jets import PDESystem
from nlseverify.numerics import BLOWUP, BlowupError, FieldState, Grid


def stencil_nu(k: float, dx: float) -> float:
    """Symbol of the first-derivative stencil: D1 e^{ikx} = i*nu(k) e^{ikx}."""
    return (8.0 * math.sin(k * dx) - math.sin(2.0 * k * dx)) / (6.0 * dx)


def stencil_mu(k: float, dx: float) -> float:
    """Symbol of the second-derivative stencil: D2 e^{ikx} = -mu(k) e^{ikx}."""
    return (30.0 - 32.0 * math.cos(k * dx) + 2.0 * math.cos(2.0 * k * dx)) / (
        12.0 * dx * dx
    )


def plane_wave_exact(
    grid: Grid,
    a: float,
    k: float,
    t: float,
    params: Mapping[str, float],
    dispersion: str = "continuum",
) -> FieldState:
    """Plane wave u + i v = a exp(i(kx - omega t)).

    ``dispersion="continuum"`` uses omega = beta*k - gamma*k^2 - delta*a^2;
    ``"discrete"`` replaces k and k^2 by the stencil symbols nu(k), mu(k),
    giving an exact solution of the semi-discretized system (useful as a
    time-integration oracle with zero spatial error).
    """
    beta, gamma, delta = params["beta"], params["gamma"], params["delta"]
    if dispersion == "continuum":
        omega = beta * k - gamma * k * k - delta * a * a
    elif dispersion == "discrete":
        omega = beta * stencil_nu(k, grid.dx) - gamma * stencil_mu(k, grid.dx) - delta * a * a
    else:
        raise ValueError(f"unknown dispersion {dispersion!r}")
    phase = k * grid.x - omega * t
    return FieldState(grid, t, (a * np.cos(phase), a * np.sin(phase)))


def case1_steady_state(grid: Grid, params: Mapping[str, float], c1: float = 0.0) -> FieldState:
    """Exact linear-phase profile for gamma = 0: wavenumber delta*eps/beta."""
    beta, delta, eps = params["beta"], params["delta"], params["eps"]
    k = delta * eps / beta
    amp = math.sqrt(eps)
    phase = k * grid.x + c1
    return FieldState(grid, 0.0, (amp * np.cos(phase), amp * np.sin(phase)))


def rotate_state(state: FieldState, angle: float) -> FieldState:
    """Internal rotation (u, v) -> (u cos - v sin, u sin + v cos)."""
    ca, sa = math.cos(angle), math.sin(angle)
    u, v = state.fields
    return FieldState(state.grid, state.t, (ca * u - sa * v, sa * u + ca * v))


def _shifts(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Periodic neighbours (f[i-2], f[i-1], f[i+1], f[i+2]) as slices of
    one padded copy."""
    n = f.shape[0]
    p = np.concatenate((f[-2:], f, f[:2]))
    return p[:n], p[1 : n + 1], p[3 : n + 3], p[4:]


def deriv1(f: np.ndarray, dx: float) -> np.ndarray:
    fm2, fm1, fp1, fp2 = _shifts(f)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * dx)


def deriv2(f: np.ndarray, dx: float) -> np.ndarray:
    fm2, fm1, fp1, fp2 = _shifts(f)
    return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * dx * dx)


def spatial_derivative(f: np.ndarray, dx: float, order: int) -> np.ndarray:
    out = f
    while order >= 2:
        out = deriv2(out, dx)
        order -= 2
    if order == 1:
        out = deriv1(out, dx)
    return out


def rhs(state: FieldState, system: PDESystem, params: Mapping[str, float]) -> list:
    """The walk of each evolution rule on ``state`` with ``params``, each
    jet a fresh stencil of its dependent's field."""
    ctx = system.ctx
    field = dict(zip(ctx.dependents, state.fields))
    bind = {p: params[p.name] for p in ctx.parameters if p.name in params}
    bind.update(field)
    bind[system.time], bind[system.space] = state.t, state.grid.x
    rules = [system.evolution[dep] for dep in ctx.dependents]
    for g in set().union(*map(collect_refs, rules)):
        if isinstance(g, JetVar):
            bind[g] = spatial_derivative(field[g.dep], state.grid.dx, g.total_order)
    return [eval_walk(rule, bind) for rule in rules]


def step_rk4(
    state: FieldState, system: PDESystem, params: Mapping[str, float], dt: float
) -> FieldState:
    fields, t, half = state.fields, state.t, 0.5 * dt

    def advance(h: float, slopes, time: float) -> FieldState:
        return FieldState(state.grid, time, tuple(f + h * k for f, k in zip(fields, slopes)))

    k1 = rhs(state, system, params)
    k2 = rhs(advance(half, k1, t + half), system, params)
    k3 = rhs(advance(half, k2, t + half), system, params)
    k4 = rhs(advance(dt, k3, t + dt), system, params)
    out = advance(
        dt / 6.0, [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)], t + dt
    )
    m = float(np.max([np.max(np.abs(f)) for f in out.fields]))
    if not math.isfinite(m) or m > BLOWUP:
        raise BlowupError(
            f"solution magnitude {m:.3g} at t={out.t:.6g}; reduce dt "
            "(see suggested_dt) or the spatial resolution"
        )
    return out
