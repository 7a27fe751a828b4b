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

A run's rules and densities share one :class:`Workspace`, which holds the
arrays the stencils, the RK4 stages and the programs' array operations
write into and ``grid.x``, made once per run; a step allocates only the
fields it returns.  A program's value may be a workspace array (the rule
``u_t = v_xx`` returns the jet array of ``v_xx`` itself), so it is valid
only until the next program run on the same workspace.

Stability is set by the rules' second-order spatial jets: a term
``gamma*u_xx`` has imaginary eigenvalues up to about ``gamma * 16 / (3 dx^2)``
plus the transport contribution; RK4 requires ``lambda * dt`` inside its
stability region (imaginary axis reach 2*sqrt(2)), hence :func:`suggested_dt`,
which reads the largest such coefficient off the ``[evolution]`` rules.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Sequence

from .exprs import (
    DEPENDENT,
    INDEPENDENT,
    Expr,
    Frozen,
    JetVar,
    Program,
    collect_refs,
    compile_numeric,
    eval_numeric,
    ref_sort_key,
)
from .jets import PDESystem, explicit_partial
from .normal import as_form, normalize
from .reduction import SolutionCandidate, apply_constraints, compile_constraints, compile_jets


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


class Grid(Frozen):
    """Uniform periodic grid on [0, L)."""

    __slots__ = ("n", "length")

    def __init__(self, n: int, length: float) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)
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


class FieldState:
    def __init__(self, grid: Grid, t: float, fields: tuple[np.ndarray, ...]) -> None:
        self.grid = grid
        self.t = t
        self.fields = fields  # one per dependent, in declaration order

    def max_abs(self, scratch: np.ndarray) -> float:
        """The largest |value| of any field, nan if any is nan; ``scratch``
        is an array of the grid's size that it may overwrite."""
        return float(np.max([np.abs(f, out=scratch).max() for f in self.fields]))


class Workspace:
    """The arrays that one run on ``grid`` reuses, shared by its compiled
    rules and densities: per dependent a padded copy (``n + 4`` values)
    with its shift views, one output array per (dependent, spatial
    order) jet slot, made when a program that needs it is compiled, one
    scratch array, one array of sixteen times a padded copy's inner
    ``n + 2`` values, two sets of RK4 stage fields and one of RK4 sums,
    ``grid.x``, and the pool that the programs' array operations write
    into.  The pool holds as many arrays as the one program on the
    workspace that needs the most; a program's values are pool arrays, so
    they too are valid only until the next program run on the workspace."""

    __slots__ = (
        "grid", "x", "scratch", "sixteen", "padded", "shifts", "jets", "stages", "sums", "pool"
    )

    def __init__(self, grid: Grid, count: int) -> None:
        n = grid.n
        self.grid, self.x, self.scratch = grid, grid.x, np.empty(n)
        wide = np.empty(n + 2)
        self.sixteen = (wide, wide[:n], wide[2:])  # the product, 16*f[i-1], 16*f[i+1]
        self.padded = [np.empty(n + 4) for _ in range(count)]
        # f[i-2], f[i-1], f[i+1], f[i+2], and f[i-1] .. f[i+1] in one view
        self.shifts = [(p[:n], p[1 : n + 1], p[3 : n + 3], p[4:], p[1:-1]) for p in self.padded]
        self.jets: dict[tuple[int, int], np.ndarray] = {}
        self.stages = tuple([np.empty(n) for _ in range(count)] for _ in range(2))
        self.sums = [np.empty(n) for _ in range(count)]
        self.pool: list[np.ndarray] = []


def deriv1(shifts: tuple, dx: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """(8*(f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12*dx) written into ``out``."""
    fm2, fm1, fp1, fp2, _ = shifts
    np.subtract(fp1, fm1, out=out)
    np.multiply(out, 8.0, out=out)
    np.subtract(out, np.subtract(fp2, fm2, out=scratch), out=out)
    return np.divide(out, 12.0 * dx, out=out)


def deriv2(
    f: np.ndarray, shifts: tuple, dx: float, out: np.ndarray, scratch: np.ndarray, sixteen: tuple
) -> np.ndarray:
    """(-f[i+2] + 16*f[i+1] - 30*f[i] + 16*f[i-1] - f[i-2]) / (12*dx^2),
    summed left to right, written into ``out``.  One product of the inner
    padded values gives both ``16*f[i+1]`` and ``16*f[i-1]``."""
    fm2, _, _, fp2, inner = shifts
    wide, m1, p1 = sixteen
    np.multiply(inner, 16.0, out=wide)
    np.subtract(p1, fp2, out=out)
    np.subtract(out, np.multiply(f, 30.0, out=scratch), out=out)
    np.add(out, m1, out=out)
    np.subtract(out, fm2, out=out)
    return np.divide(out, 12.0 * dx * dx, out=out)


def spatial_jets(work: Workspace, dep: int, f: np.ndarray, orders: frozenset[int]) -> None:
    """The jets of ``orders`` of dependent ``dep``, whose field is ``f``,
    written into their slots of ``work``.  Each pass pads the current
    function once, takes its first derivative if that order is wanted and
    its second if any higher one is; the second is the next pass's
    function, so order 3 is D1(D2 f) and order 4 is D2(D2 f)."""
    padded, shifts, dx, scratch = work.padded[dep], work.shifts[dep], work.grid.dx, work.scratch
    top, order = max(orders), 0
    while order < top:
        np.concatenate((f[-2:], f, f[:2]), out=padded)
        if order + 1 in orders:
            deriv1(shifts, dx, work.jets[dep, order + 1], scratch)
        if order + 2 <= top:
            f = deriv2(f, shifts, dx, work.jets[dep, order + 2], scratch, work.sixteen)
        order += 2


_UFUNCS = {operator.add: "add", operator.sub: "subtract", operator.mul: "multiply"}


def _into(fn, out: np.ndarray):
    """The instruction ``fn``, under its name, writing its array value into ``out``."""
    target = getattr(np, _UFUNCS[fn]) if fn in _UFUNCS else fn  # the others take ``out``

    def lowered(a, b):
        return target(a, b, out)

    lowered.__name__ = fn.__name__
    return lowered


def lower(program: Program, slots: tuple, work: Workspace) -> Program:
    """``program`` with each instruction on an array writing into an array
    of ``work.pool``, for inputs in ``slots``: every slot but ``"t"`` is an
    array of the grid's size, and the constants are scalars.  One linear
    scan assigns the arrays: a value's array is free again at the
    instruction that reads it last (an elementwise ufunc may write over its
    operand), and an output keeps its array.  The pool grows to the most
    arrays one program holds at once."""
    last_use = {r: k for k, (_, _, a, b) in enumerate(program.code) for r in (a, b)}
    arrays = {i for i, s in enumerate(slots) if s != "t"}
    pool, held, free, code = work.pool, {}, [], []  # held: register -> its pool index
    for k, (fn, dest, a, b) in enumerate(program.code):
        if a in arrays or b in arrays:
            free.extend(held.pop(r) for r in {a, b}  # the operands read last here, each once
                        if last_use[r] == k and r in held and r not in program.outputs)
            i = held[dest] = free.pop() if free else len(held)  # all held when none is free
            if i == len(pool):
                pool.append(np.empty(work.grid.n))
            fn = _into(fn, pool[i])
            arrays.add(dest)
        code.append((fn, dest, a, b))
    return Program(program.inputs, program.registers, tuple(code), program.outputs)


class GridProgram:
    """Expressions compiled for the snapshots of one system, evaluated in
    one workspace.  Each input of ``program`` has a slot: ``(dependent
    index, spatial order)``, ``"x"`` or ``"t"``.  The program is lowered
    once (:func:`lower`), so a run allocates no array of its own; its
    values are valid until the next program run on the workspace."""

    __slots__ = ("program", "slots", "work", "orders")

    def __init__(
        self, program: Program, slots: tuple[tuple[int, int] | str, ...], work: Workspace
    ) -> None:
        self.program, self.slots, self.work = lower(program, slots, work), slots, work
        orders: dict[int, set[int]] = {}
        for s in slots:
            if s not in ("x", "t") and s[1] > 0:
                orders.setdefault(s[0], set()).add(s[1])
        self.orders = tuple((dep, frozenset(o)) for dep, o in orders.items())
        for dep, o in self.orders:
            for order in range(1, max(o) + 1):
                if (dep, order) not in work.jets:
                    work.jets[dep, order] = np.empty(work.grid.n)

    def __call__(self, state: FieldState) -> list:
        """The expressions' values on ``state``, in order.  A value may be a
        workspace array, valid until the next program run on the workspace."""
        work, fields = self.work, state.fields
        for dep, orders in self.orders:
            spatial_jets(work, dep, fields[dep], orders)
        jets = work.jets
        return self.program.run([
            state.t if s == "t" else work.x if s == "x" else jets[s] if s[1] else fields[s[0]]
            for s in self.slots
        ])


def compile_on_grid(
    exprs: Sequence[Expr], system: PDESystem, params: Mapping[str, float], work: Workspace
) -> GridProgram:
    """``exprs`` compiled with the values in ``params`` fixed, to run in
    ``work``; a parameter without a value is unbound.  Jets must be purely
    spatial (ValueError, naming the first in the first expression that has
    one): time derivatives have no pointwise meaning on a single snapshot."""
    index = {d: i for i, d in enumerate(system.ctx.dependents)}
    fixed, free, slots = {}, [], []
    for g in dict.fromkeys(g for e in exprs for g in sorted(collect_refs(e), key=ref_sort_key)):
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
    return GridProgram(compile_numeric(exprs, fixed, free), tuple(slots), work)


def evolution_program(
    system: PDESystem, params: Mapping[str, float], work: Workspace
) -> GridProgram:
    """The evolution rules compiled, one per dependent in declaration order."""
    rules = tuple(system.evolution[dep] for dep in system.ctx.dependents)
    return compile_on_grid(rules, system, params, work)


def rhs(state: FieldState, rules: GridProgram) -> list:
    """The compiled evolution rules evaluated on ``state``, one time
    derivative per dependent in declaration order."""
    return rules(state)


def step_rk4(state: FieldState, rules: GridProgram, dt: float) -> FieldState:
    """One RK4 step of the state's fields, one per dependent of the rules'
    system, in the rules' workspace.  The stages alternate between its two
    stage sets, because a slope may be the previous stage's field, and each
    slope is folded into its sum ``((k1 + 2 k2) + 2 k3) + k4`` before the
    next program run may overwrite it.  The returned fields are fresh."""
    work, fields, t, half = rules.work, state.fields, state.t, 0.5 * dt
    scratch, sums = work.scratch, work.sums

    def stage(slopes, h: float, time: float, target: list) -> list:
        """The slopes at ``fields + h * slopes``, written into ``target``, at
        ``time``."""
        for f, k, out in zip(fields, slopes, target):
            np.add(f, np.multiply(k, h, out=scratch), out=out)
        return rhs(FieldState(state.grid, time, tuple(target)), rules)

    def fold(slopes) -> None:
        for acc, k in zip(sums, slopes):
            np.add(acc, np.multiply(k, 2.0, out=scratch), out=acc)

    first, second = work.stages
    k = rhs(state, rules)
    for acc, k1 in zip(sums, k):
        np.copyto(acc, k1)
    k = stage(k, half, t + half, first)
    fold(k)
    k = stage(k, half, t + half, second)
    fold(k)
    for acc, k4 in zip(sums, stage(k, dt, t + dt, first)):
        np.add(acc, k4, out=acc)
    out = FieldState(state.grid, t + dt, tuple(
        np.add(f, np.multiply(acc, dt / 6.0, out=acc)) for f, acc in zip(fields, sums)
    ))
    m = out.max_abs(scratch)
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


def conserved_quantity(values, grid: Grid) -> float:
    """Rectangle-rule integral over the periodic grid of a density's values
    (an array of the grid's size, or a scalar)."""
    return float(grid.dx * np.sum(np.broadcast_to(values, grid.n)))


class QuantitySeries:
    """Sampled conserved quantities along a run."""

    def __init__(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self.times: list[float] = []
        self.values: dict[str, list[float]] = {lb: [] for lb in labels}

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
    """The conserved densities of one run, compiled as one program into the
    run's workspace (a sample runs the stencils once and computes a term
    that densities share once), and the series of their integrals, which
    starts with the sample of ``start``."""

    def __init__(
        self,
        densities: Mapping[str, Expr],
        system: PDESystem,
        params: Mapping[str, float],
        start: FieldState,
    ) -> None:
        self.work = Workspace(start.grid, len(start.fields))
        self.densities = compile_on_grid(tuple(densities.values()), system, params, self.work)
        self.series = QuantitySeries(tuple(densities))
        self.sample(start)

    def sample(self, state: FieldState) -> None:
        labels = self.series.labels
        if labels:
            values = self.densities(state)
            self.series.record(state.t, {
                lb: conserved_quantity(v, state.grid) for lb, v in zip(labels, values)
            })


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
    ``sample_every`` steps and after the last; the rules share its
    workspace, so that a run holds one set of arrays."""
    work = audit.work if audit is not None else Workspace(state.grid, len(state.fields))
    rules = evolution_program(system, params, work)
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


def candidate_start(
    cand: SolutionCandidate, system: PDESystem, params: Mapping[str, float], grid: Grid
) -> tuple[FieldState, dict[str, float]]:
    """A solution candidate's closed form at t = 0 on ``grid``, and the
    parameter values it solves the system for: ``params`` with its
    constraints applied in order.  KeyError names a parameter without a
    value."""
    values = apply_constraints(cand, compile_constraints((cand,)), params)
    _, program = compile_jets(cand.fields)
    at = {**values, system.time.name: 0.0, system.space.name: grid.x}
    fields = program.run([at[g.name] for g in program.inputs])
    return FieldState(grid, 0.0, tuple(np.broadcast_to(f, grid.n) for f in fields)), values


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
