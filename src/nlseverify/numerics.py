"""Periodic finite-difference integration and discrete conservation audits.

A :class:`FieldState` holds one array per dependent, in the problem file's
declaration order.  The right-hand side is the file's ``[evolution]``
section: ``run`` compiles the rules once (:func:`exprs.compile_numeric`),
with the parameter values from the caller folded in (``simulate`` passes
the file's ``[params]`` values) and every other generator resolved to a
slot of the snapshot: a dependent or one of its spatial jets, ``x`` or
``t``.  Each evaluation fills the slots and runs the program; the conserved
densities are compiled and sampled the same way.  Space: fourth-order
central stencils on a uniform periodic grid supply the spatial jets.
Time: classic fourth-order Runge-Kutta, each stage evaluated at its own
stage time, so a rule may depend on ``t`` explicitly.

The steady profile is the bundled cubic system's closed form for its real
and imaginary part at gamma = 0.

Stability is set by the rules' second-order spatial jets: a term
``gamma*u_xx`` has imaginary eigenvalues up to about ``gamma * 16 / (3 dx^2)``
plus the transport contribution; RK4 requires ``lambda * dt`` inside its
stability region (imaginary axis reach 2*sqrt(2)), hence :func:`suggested_dt`,
which reads the largest such coefficient off the ``[evolution]`` rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .exprs import (
    DEPENDENT,
    INDEPENDENT,
    Expr,
    JetVar,
    Program,
    collect_refs,
    compile_numeric,
    eval_numeric,
    ref_sort_key,
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
        if not 0 < self.length < math.inf:
            raise ValueError(f"grid length must be positive and finite, got {self.length}")
        if not self.dx * self.dx > 0:
            raise ValueError(f"grid spacing {self.dx:.3g} squares to zero in floating point")

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


class GridProgram:
    """Expressions compiled for the snapshots of one system.  Each input of
    ``program`` has a slot: ``(dependent index, spatial order)``, ``"x"``
    or ``"t"``.  (A plain class, like ``Program``, to keep imports short.)"""

    __slots__ = ("program", "slots")

    def __init__(self, program: Program, slots: tuple[tuple[int, int] | str, ...]) -> None:
        self.program, self.slots = program, slots

    def __call__(self, state: FieldState) -> list:
        """The expressions' values on ``state``, in order."""
        dx = state.grid.dx
        return self.program.run([
            state.t if s == "t" else state.grid.x if s == "x"
            else spatial_derivative(state.fields[s[0]], dx, s[1])
            for s in self.slots
        ])


def compile_on_grid(
    exprs: Sequence[Expr], system: PDESystem, params: Mapping[str, float]
) -> GridProgram:
    """``exprs`` compiled with the values in ``params`` fixed; a parameter
    without one is unbound.  Jets must be purely spatial (ValueError): time
    derivatives have no pointwise meaning on a single snapshot."""
    index = {d: i for i, d in enumerate(system.ctx.dependents)}
    fixed, free, slots = {}, [], []
    for g in sorted(set().union(*map(collect_refs, exprs)), key=ref_sort_key):
        if isinstance(g, JetVar):
            if g.order_in(system.time.name) > 0:
                raise ValueError(
                    f"density contains the time derivative {g.name}; only "
                    "spatial jets can be sampled on a snapshot"
                )
            slot = (index[g.dep], g.total_order)
        elif g.kind == INDEPENDENT:
            slot = "x" if g == system.space else "t"
        elif g.kind == DEPENDENT:
            slot = (index[g], 0)
        else:
            if g.name in params:
                fixed[g] = params[g.name]
            continue
        free.append(g)
        slots.append(slot)
    return GridProgram(compile_numeric(exprs, fixed, free), tuple(slots))


def evolution_program(system: PDESystem, params: Mapping[str, float]) -> GridProgram:
    """The evolution rules compiled, one per dependent in declaration order."""
    rules = tuple(system.evolution[dep] for dep in system.ctx.dependents)
    return compile_on_grid(rules, system, params)


def rhs(state: FieldState, rules: GridProgram) -> list:
    """The compiled evolution rules evaluated on ``state``, one time
    derivative per dependent in declaration order."""
    return rules(state)


def step_rk4(state: FieldState, rules: GridProgram, dt: float) -> FieldState:
    """One RK4 step of the state's fields, one per dependent of the rules' system."""
    fields, t, half = state.fields, state.t, 0.5 * dt

    def advance(h: float, slopes, time: float) -> FieldState:
        return FieldState(state.grid, time, tuple(f + h * k for f, k in zip(fields, slopes)))

    k1 = rhs(state, rules)
    k2 = rhs(advance(half, k1, t + half), rules)
    k3 = rhs(advance(half, k2, t + half), rules)
    k4 = rhs(advance(dt, k3, t + dt), rules)
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


def conserved_quantity(density: GridProgram, state: FieldState) -> float:
    """Rectangle-rule integral of a compiled density over the periodic grid."""
    (values,) = density(state)
    return float(state.grid.dx * np.sum(np.broadcast_to(values, state.grid.n)))


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


class Audit:
    """The conserved densities of one run, compiled, and the series of their
    integrals, which starts with the sample of ``start``."""

    def __init__(
        self,
        densities: Mapping[str, Expr],
        system: PDESystem,
        params: Mapping[str, float],
        start: FieldState,
    ) -> None:
        self.densities = {lb: compile_on_grid((d,), system, params) for lb, d in densities.items()}
        self.series = QuantitySeries(tuple(densities))
        self.sample(start)

    def sample(self, state: FieldState) -> None:
        if self.densities:
            self.series.record(
                state.t, {lb: conserved_quantity(d, state) for lb, d in self.densities.items()}
            )


def run(
    state: FieldState,
    system: PDESystem,
    params: Mapping[str, float],
    dt: float,
    steps: int,
    audit: Audit | None = None,
    sample_every: int = 1,
) -> FieldState:
    """``steps`` RK4 steps from ``state`` under the evolution rules, compiled
    once with ``params``.  ``audit``, made on ``state``, samples every
    ``sample_every`` steps and after the last."""
    rules = evolution_program(system, params)
    current = state
    for i in range(1, steps + 1):
        current = step_rk4(current, rules, dt)
        if audit is not None and (i % sample_every == 0 or i == steps):
            audit.sample(current)
    return current


# ---------------------------------------------------------------------------
# reference states


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
