"""Periodic finite-difference integration and discrete conservation audits.

A :class:`FieldState` holds one array per dependent, in the problem file's
declaration order.  The right-hand side is the file's ``[evolution]``
section: each rule ``<dep>_t = ...`` is evaluated on the grid by
:func:`eval_numeric`, with the same binder as the conserved densities; the
parameter values come from the caller (``simulate`` passes the file's
``[params]`` values).  Space: fourth-order central
stencils on a uniform periodic grid supply the spatial jets.  Time: classic
fourth-order Runge-Kutta, each stage evaluated at its own stage time, so a
rule may depend on ``t`` explicitly.

The reference states (plane wave, steady profile, rotation) are the bundled
cubic system's closed forms for its real and imaginary part.  The stencil
symbols ``nu`` and ``mu`` make the semi-discrete plane wave an exact
solution of the spatially discretized cubic system, which isolates
time-integration error in convergence measurements.

Stability is set by the rules' second-order spatial jets: a term
``gamma*u_xx`` has imaginary eigenvalues up to about ``gamma * 16 / (3 dx^2)``
plus the transport contribution; RK4 requires ``lambda * dt`` inside its
stability region (imaginary axis reach 2*sqrt(2)), hence :func:`suggested_dt`,
which reads the largest such coefficient off the ``[evolution]`` rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .exprs import (
    INDEPENDENT,
    Expr,
    JetVar,
    eval_numeric,
)
from .jets import PDESystem, explicit_partial
from .normal import as_form, normalize


class _Numpy:
    """numpy, imported in this stand-in's place on first use; the exact commands never use it."""

    def __getattr__(self, name: str):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()


class BlowupError(RuntimeError):
    """The numeric solution left the trusted range (instability)."""


BLOWUP = 1e6  # largest field magnitude a step may produce before BlowupError


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
    fields: tuple[np.ndarray, ...]  # one per dependent, in declaration order

    def max_abs(self) -> float:
        return float(np.max([np.max(np.abs(f)) for f in self.fields]))  # nan if any is nan


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


def stencil_nu(k: float, dx: float) -> float:
    """Symbol of the first-derivative stencil: D1 e^{ikx} = i*nu(k) e^{ikx}."""
    return (8.0 * math.sin(k * dx) - math.sin(2.0 * k * dx)) / (6.0 * dx)


def stencil_mu(k: float, dx: float) -> float:
    """Symbol of the second-derivative stencil: D2 e^{ikx} = -mu(k) e^{ikx}."""
    return (30.0 - 32.0 * math.cos(k * dx) + 2.0 * math.cos(2.0 * k * dx)) / (
        12.0 * dx * dx
    )


def rhs(
    state: FieldState, system: PDESystem, params: Mapping[str, float]
) -> tuple[np.ndarray | float, ...]:
    """The system's evolution rules evaluated on ``state``, one time
    derivative per dependent in declaration order."""
    bind = GridBindings(state, system, params)
    return tuple(eval_numeric(system.evolution[dep], bind) for dep in system.ctx.dependents)


def step_rk4(
    state: FieldState,
    system: PDESystem,
    params: Mapping[str, float],
    dt: float,
) -> FieldState:
    """One RK4 step of the state's fields, one per dependent of the system."""
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
    m = out.max_abs()
    if not math.isfinite(m) or m > BLOWUP:
        raise BlowupError(
            f"solution magnitude {m:.3g} at t={out.t:.6g}; reduce dt "
            "(see suggested_dt) or the spatial resolution"
        )
    return out


def suggested_dt(grid: Grid, system: PDESystem, params: Mapping[str, float]) -> float:
    """0.2 (a safety factor) times dx^2 over the largest |coefficient| of a
    second-order spatial jet in the evolution rules at ``params``; each must
    be a constant expression of the parameters (else UnboundGeneratorError)."""
    ctx = system.ctx
    bind = {p: params[p.name] for p in ctx.parameters if p.name in params}
    second = [ctx.jet(dep, 2 * system.space.name) for dep in ctx.dependents]
    rules = [as_form(r) for r in system.evolution.values()]
    coefficients = (normalize(explicit_partial(r, jet)).to_expr() for r in rules for jet in second)
    largest = max(abs(eval_numeric(k, bind)) for k in coefficients)
    return 0.2 * grid.dx * grid.dx / max(largest, 1e-12)


# ---------------------------------------------------------------------------
# conserved quantities on the grid


class GridBindings(dict):
    """Numeric values of the generators on one snapshot, each computed on
    its first lookup.

    Jet variables must be purely spatial; time derivatives have no
    pointwise meaning on a single snapshot.  A generator with no value
    here raises ``KeyError``, for ``eval_numeric`` to report by name.
    """

    def __init__(
        self, state: FieldState, system: PDESystem, params: Mapping[str, float]
    ) -> None:
        super().__init__()
        self.state, self.system, self.params = state, system, params
        self.arrays = dict(zip(system.ctx.dependents, state.fields))

    def __missing__(self, g):
        state, system, arrays = self.state, self.system, self.arrays
        if isinstance(g, JetVar):
            if g.order_in(system.time.name) > 0:
                raise ValueError(
                    f"density contains the time derivative {g.name}; only "
                    "spatial jets can be sampled on a snapshot"
                )
            if g.dep not in arrays:
                raise KeyError(g)
            value = spatial_derivative(
                arrays[g.dep], state.grid.dx, g.order_in(system.space.name)
            )
        elif g.kind == INDEPENDENT:
            value = state.grid.x if g == system.space else state.t
        elif g in arrays:
            value = arrays[g]
        elif g.name in self.params:
            value = self.params[g.name]
        else:
            raise KeyError(g)
        self[g] = value
        return value


def conserved_quantity(
    density: Expr, state: FieldState, system: PDESystem, params: Mapping[str, float]
) -> float:
    """Rectangle-rule integral of a density over the periodic grid."""
    bind = GridBindings(state, system, params)
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
        """max |Q(t) - Q(0)| / max(1, |Q(0)|); nan if any sample is nan."""
        vals = self.values[label]
        v0 = vals[0]
        scale = max(1.0, abs(v0))
        return float(np.max(np.abs(np.array(vals) - v0))) / scale

    def to_csv(self) -> str:
        lines = ["time," + ",".join(self.labels)]
        for i, t in enumerate(self.times):
            row = [f"{t:.17g}"] + [f"{self.values[lb][i]:.17g}" for lb in self.labels]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def run(
    state: FieldState,
    system: PDESystem,
    params: Mapping[str, float],
    dt: float,
    steps: int,
    densities: Mapping[str, Expr] | None = None,
    sample_every: int = 1,
) -> tuple[FieldState, QuantitySeries]:
    densities = dict(densities or {})
    series = QuantitySeries(tuple(densities))

    def sample(st: FieldState) -> None:
        if densities:
            series.record(
                st.t,
                {lb: conserved_quantity(d, st, system, params) for lb, d in densities.items()},
            )

    sample(state)
    current = state
    for i in range(1, steps + 1):
        current = step_rk4(current, system, params, dt)
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
    return FieldState(grid, t, (a * np.cos(phase), a * np.sin(phase)))


def plane_wave_start(grid: Grid, a: float, k: float) -> FieldState:
    """a*exp(i*k*x) at t = 0, for any parameters: omega only enters at t > 0."""
    return FieldState(grid, 0.0, (a * np.cos(k * grid.x), a * np.sin(k * grid.x)))


def case1_steady_state(grid: Grid, params: Mapping[str, float], c1: float = 0.0) -> FieldState:
    """Exact linear-phase profile for gamma = 0: wavenumber delta*eps/beta."""
    beta, delta, eps = params["beta"], params["delta"], params["eps"]
    k = delta * eps / beta
    amp = math.sqrt(eps)
    phase = k * grid.x + c1
    return FieldState(grid, 0.0, (amp * np.cos(phase), amp * np.sin(phase)))


RANDOM_MODES = ((0.5, 0.2), (1.0, 0.1), (1.5, 0.05))  # (wavenumber, amplitude)


def random_trig_state(grid: Grid, seed: int) -> FieldState:
    """Small multi-mode data with seeded phases, periodic on the grid."""
    rng = np.random.default_rng(seed)
    u = np.zeros(grid.n)
    v = np.zeros(grid.n)
    for k, a in RANDOM_MODES:
        if abs((k * grid.length / (2.0 * math.pi)) % 1.0) > 1e-12:
            raise ValueError(f"wavenumber {k} is not periodic on length {grid.length}")
        pu, pv = rng.uniform(0.0, 2.0 * math.pi, size=2)
        u += a * np.cos(k * grid.x + pu)
        v += a * np.cos(k * grid.x + pv)
    return FieldState(grid, 0.0, (u, v))


def rotate_state(state: FieldState, angle: float) -> FieldState:
    """Internal rotation (u, v) -> (u cos - v sin, u sin + v cos)."""
    ca, sa = math.cos(angle), math.sin(angle)
    u, v = state.fields
    return FieldState(state.grid, state.t, (ca * u - sa * v, sa * u + ca * v))
