"""Periodic finite-difference integration and discrete conservation audits.

Space: fourth-order central stencils on a uniform periodic grid.  Time:
classic fourth-order Runge-Kutta on the evolution form

    u_t = -beta*u_x + gamma*v_xx - delta*v*(u^2 + v^2)
    v_t = -beta*v_x - gamma*u_xx + delta*u*(u^2 + v^2)

The stencil symbols ``nu`` and ``mu`` make the semi-discrete plane wave
an exact solution of the spatially discretized system, which isolates
time-integration error in convergence measurements.

Stability: the linear part has imaginary eigenvalues up to about
``gamma * 16 / (3 dx^2)`` plus the transport contribution; RK4 requires
``lambda * dt`` inside its stability region (imaginary axis reach 2*sqrt(2)),
hence :func:`suggested_dt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .exprs import (
    INDEPENDENT,
    Expr,
    JetVar,
    collect_refs,
    eval_numeric,
)


class BlowupError(RuntimeError):
    """The numeric solution left the trusted range (instability)."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)."""

    n: int
    length: float

    def __post_init__(self) -> None:
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size {self.n} must be a power of two, at least 16")
        if not (self.length > 0):
            raise ValueError("grid length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


@dataclass
class FieldState:
    grid: Grid
    t: float
    u: np.ndarray
    v: np.ndarray

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.t, self.u.copy(), self.v.copy())

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.u)), np.max(np.abs(self.v))))


def deriv1(f: np.ndarray, dx: float) -> np.ndarray:
    fp1, fm1 = np.roll(f, -1), np.roll(f, 1)
    fp2, fm2 = np.roll(f, -2), np.roll(f, 2)
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * dx)


def deriv2(f: np.ndarray, dx: float) -> np.ndarray:
    fp1, fm1 = np.roll(f, -1), np.roll(f, 1)
    fp2, fm2 = np.roll(f, -2), np.roll(f, 2)
    return (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * dx * dx)


def spatial_derivative(f: np.ndarray, dx: float, order: int) -> np.ndarray:
    out = f
    while order >= 2:
        out = deriv2(out, dx)
        order -= 2
    if order == 1:
        out = deriv1(out, dx)
    return out


def stencil_nu(k: float, dx: float) -> float:
    """Symbol of the first-derivative stencil: D1 e^{ikx} = i*nu(k) e^{ikx}."""
    return (8.0 * math.sin(k * dx) - math.sin(2.0 * k * dx)) / (6.0 * dx)


def stencil_mu(k: float, dx: float) -> float:
    """Symbol of the second-derivative stencil: D2 e^{ikx} = -mu(k) e^{ikx}."""
    return (30.0 - 32.0 * math.cos(k * dx) + 2.0 * math.cos(2.0 * k * dx)) / (
        12.0 * dx * dx
    )


def rhs(
    u: np.ndarray, v: np.ndarray, dx: float, params: Mapping[str, float]
) -> tuple[np.ndarray, np.ndarray]:
    beta, gamma, delta = params["beta"], params["gamma"], params["delta"]
    mag = u * u + v * v
    du = -beta * deriv1(u, dx) + gamma * deriv2(v, dx) - delta * v * mag
    dv = -beta * deriv1(v, dx) - gamma * deriv2(u, dx) + delta * u * mag
    return du, dv


def step_rk4(
    state: FieldState, params: Mapping[str, float], dt: float, blowup: float = 1e6
) -> FieldState:
    dx = state.grid.dx
    u, v = state.u, state.v
    k1u, k1v = rhs(u, v, dx, params)
    k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v, dx, params)
    k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v, dx, params)
    k4u, k4v = rhs(u + dt * k3u, v + dt * k3v, dx, params)
    nu = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    nv = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    out = FieldState(state.grid, state.t + dt, nu, nv)
    m = out.max_abs()
    if not math.isfinite(m) or m > blowup:
        raise BlowupError(
            f"solution magnitude {m:.3g} at t={out.t:.6g}; reduce dt "
            "(see suggested_dt) or the spatial resolution"
        )
    return out


def suggested_dt(grid: Grid, params: Mapping[str, float], safety: float = 0.2) -> float:
    gamma = max(abs(params.get("gamma", 0.0)), 1e-12)
    return safety * grid.dx * grid.dx / gamma


# ---------------------------------------------------------------------------
# conserved quantities on the grid


def grid_bindings(state: FieldState, params: Mapping[str, float], refs) -> dict:
    """Numeric bindings for every generator in ``refs``.

    Jet variables must be purely spatial; time derivatives have no
    pointwise meaning on a single snapshot.  A generator with no value
    here is left unbound, for ``eval_numeric`` to report by name.
    """
    grid = state.grid
    arrays = {"u": state.u, "v": state.v}
    bind: dict = {}
    for g in refs:
        if isinstance(g, JetVar):
            if g.order_in("t") > 0:
                raise ValueError(
                    f"density contains the time derivative {g.name}; only "
                    "spatial jets can be sampled on a snapshot"
                )
            if g.dep.name in arrays:
                bind[g] = spatial_derivative(arrays[g.dep.name], grid.dx, g.order_in("x"))
        elif g.kind == INDEPENDENT:
            bind[g] = grid.x if g.name == "x" else state.t
        elif g.name in arrays:
            bind[g] = arrays[g.name]
        elif g.name in params:
            bind[g] = params[g.name]
    return bind


def conserved_quantity(density: Expr, state: FieldState, params: Mapping[str, float]) -> float:
    """Rectangle-rule integral of a density over the periodic grid."""
    bind = grid_bindings(state, params, collect_refs(density))
    values = np.broadcast_to(eval_numeric(density, bind), state.grid.n)
    return float(state.grid.dx * np.sum(values))


@dataclass
class QuantitySeries:
    """Sampled conserved quantities along a run."""

    labels: tuple[str, ...]
    times: list[float] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for lb in self.labels:
            self.values.setdefault(lb, [])

    def record(self, t: float, sampled: Mapping[str, float]) -> None:
        self.times.append(t)
        for lb in self.labels:
            self.values[lb].append(sampled[lb])

    def drift(self, label: str) -> float:
        vals = self.values[label]
        v0 = vals[0]
        scale = max(1.0, abs(v0))
        return max(abs(v - v0) for v in vals) / scale

    def to_csv(self) -> str:
        lines = ["time," + ",".join(self.labels)]
        for i, t in enumerate(self.times):
            row = [f"{t:.17g}"] + [f"{self.values[lb][i]:.17g}" for lb in self.labels]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def run(
    state: FieldState,
    params: Mapping[str, float],
    dt: float,
    steps: int,
    densities: Mapping[str, Expr] | None = None,
    sample_every: int = 1,
    blowup: float = 1e6,
) -> tuple[FieldState, QuantitySeries]:
    densities = dict(densities or {})
    series = QuantitySeries(tuple(densities))

    def sample(st: FieldState) -> None:
        if densities:
            series.record(
                st.t, {lb: conserved_quantity(d, st, params) for lb, d in densities.items()}
            )

    sample(state)
    current = state
    for i in range(1, steps + 1):
        current = step_rk4(current, params, dt, blowup=blowup)
        if i % sample_every == 0 or i == steps:
            sample(current)
    return current, series


# ---------------------------------------------------------------------------
# reference states


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
    return FieldState(grid, t, a * np.cos(phase), a * np.sin(phase))


def plane_wave_state(
    grid: Grid, a: float, k: float, params: Mapping[str, float]
) -> FieldState:
    return plane_wave_exact(grid, a, k, 0.0, params)


def case1_steady_state(grid: Grid, params: Mapping[str, float], c1: float = 0.0) -> FieldState:
    """Exact linear-phase profile for gamma = 0: wavenumber delta*eps/beta."""
    beta, delta, eps = params["beta"], params["delta"], params["eps"]
    k = delta * eps / beta
    amp = math.sqrt(eps)
    phase = k * grid.x + c1
    return FieldState(grid, 0.0, amp * np.cos(phase), amp * np.sin(phase))


def random_trig_state(
    grid: Grid,
    seed: int,
    wavenumbers: Sequence[float] = (0.5, 1.0, 1.5),
    amplitudes: Sequence[float] = (0.2, 0.1, 0.05),
) -> FieldState:
    """Small multi-mode data with seeded phases, periodic on the grid."""
    rng = np.random.default_rng(seed)
    u = np.zeros(grid.n)
    v = np.zeros(grid.n)
    for k, a in zip(wavenumbers, amplitudes):
        if abs((k * grid.length / (2.0 * math.pi)) % 1.0) > 1e-12:
            raise ValueError(f"wavenumber {k} is not periodic on length {grid.length}")
        pu, pv = rng.uniform(0.0, 2.0 * math.pi, size=2)
        u += a * np.cos(k * grid.x + pu)
        v += a * np.cos(k * grid.x + pv)
    return FieldState(grid, 0.0, u, v)


def rotate_state(state: FieldState, angle: float) -> FieldState:
    """Internal rotation (u, v) -> (u cos - v sin, u sin + v cos)."""
    ca, sa = math.cos(angle), math.sin(angle)
    return FieldState(
        state.grid, state.t, ca * state.u - sa * state.v, sa * state.u + ca * state.v
    )
