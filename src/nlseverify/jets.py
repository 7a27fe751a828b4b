"""Jet-space calculus and the verification predicates built on it.

Total derivatives, Euler operators, prolongation of point vector fields,
and on-shell reduction against an evolution form.  The four predicate
functions at the bottom each return exact normal forms whose zeroness is
the pass criterion:

* ``multiplier_condition``: the Euler operator of a multiplier
  combination annihilates identically (off shell).
* ``divergence_match``: a density/flux pair's total divergence equals the
  multiplier combination identically (off shell).
* ``symmetry_invariance``: a prolonged field maps each equation to zero
  modulo the equations (on shell).
* ``association_residual``: the conserved vector is invariant under the
  field in the divergence sense (on shell).

These are deliberately independent routes; none is derived from another,
so agreement between them is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .exprs import (
    DEPENDENT,
    INDEPENDENT,
    Context,
    Expr,
    ExprError,
    Gen,
    JetVar,
    VarId,
    ZERO,
    add,
    collect_refs,
    is_zero_expr,
    jet_order,
    mul,
    neg,
    partial,
    ref_sort_key,
    substitute,
    var,
)
from .normal import PolyNF, normalize


class ProlongationError(ExprError):
    """A prolongation coefficient needed by the computation is missing."""


class ReductionError(ExprError):
    """On-shell reduction failed to eliminate time derivatives."""


def _sorted_refs(e: Expr) -> list[Gen]:
    return sorted(collect_refs(e), key=ref_sort_key)


def total_derivative(e: Expr, wrt: VarId, ctx: Context) -> Expr:
    """Total derivative D_i: explicit part plus the chain over jet variables."""
    if wrt.kind != INDEPENDENT:
        raise ValueError(f"total derivative must be along an independent, not {wrt.name}")
    pieces = [partial(e, wrt)]
    for g in _sorted_refs(e):
        if isinstance(g, JetVar) or (isinstance(g, VarId) and g.kind == DEPENDENT):
            pe = partial(e, g)
            if not is_zero_expr(pe):
                pieces.append(mul(var(ctx.bump(g, wrt)), pe))
    return add(*pieces)


def iterated_derivative(e: Expr, orders: Sequence[tuple[str, int]], ctx: Context) -> Expr:
    out = e
    for name, n in orders:
        w = ctx[name]
        for _ in range(n):
            out = total_derivative(out, w, ctx)
    return out


def euler_operator(e: Expr, dep: VarId, ctx: Context) -> Expr:
    """Variational derivative with respect to one dependent variable:
    sum over jets J of (-D)_J applied to the partial of ``e`` at u_J."""
    if dep.kind != DEPENDENT:
        raise ValueError(f"Euler operator needs a dependent variable, not {dep.name}")
    pieces = []
    for g in _sorted_refs(e):
        if isinstance(g, VarId) and g == dep:
            pieces.append(partial(e, g))
        elif isinstance(g, JetVar) and g.dep == dep:
            term = iterated_derivative(partial(e, g), g.orders, ctx)
            if g.total_order % 2:
                term = neg(term)
            pieces.append(term)
    return add(*pieces)


# ---------------------------------------------------------------------------
# the PDE system in evolution form


@dataclass(frozen=True)
class PDESystem:
    """Equations plus a consistent evolution form used for on-shell work.

    Exactly two independent variables (one time-like, one space-like).
    ``equations`` are labeled left-hand sides understood as ``expr = 0``;
    ``evolution`` gives each dependent's time derivative as a spatial
    expression.  Construction verifies the evolution form actually solves
    every equation identically, so the two presentations cannot drift
    apart in a problem file.
    """

    ctx: Context
    time: VarId
    space: VarId
    equations: tuple[tuple[str, Expr], ...]
    evolution: Mapping[VarId, Expr]

    @classmethod
    def build(
        cls,
        ctx: Context,
        equations: Sequence[tuple[str, Expr]],
        evolution: Mapping[str, Expr],
        time: str = "t",
    ) -> "PDESystem":
        if len(ctx.independents) != 2:
            raise ValueError("system requires exactly two independent variables")
        t = ctx[time]
        (space,) = [v for v in ctx.independents if v != t]
        evo: dict[VarId, Expr] = {}
        for name, rhs in evolution.items():
            dep = ctx[name]
            for g in collect_refs(rhs):
                if isinstance(g, JetVar) and g.order_in(t.name) > 0:
                    raise ValueError(
                        f"evolution rule for {name} contains the time "
                        f"derivative {g.name}"
                    )
            evo[dep] = rhs
        missing = [d.name for d in ctx.dependents if d not in evo]
        if missing:
            raise ValueError(f"no evolution rule for {', '.join(missing)}")
        system = cls(ctx, t, space, tuple(equations), evo)
        for label, eq in system.equations:
            if not normalize(system.reduce(eq)).is_zero:
                raise ValueError(
                    f"evolution form does not solve equation {label}"
                )
        return system

    def _binding(self, g: JetVar) -> Expr:
        rhs = self.evolution[g.dep]
        for name, n in g.orders:
            count = n - 1 if name == self.time.name else n
            if count:
                rhs = iterated_derivative(rhs, ((name, count),), self.ctx)
        return rhs

    def reduce(self, e: Expr) -> Expr:
        """Eliminate every time derivative using the evolution rules.

        Each pass substitutes all current time-bearing jets at once; the
        maximum time order strictly decreases, so the loop terminates.
        """
        out = e
        for _ in range(self.ctx.max_order + 1):
            targets = [
                g
                for g in _sorted_refs(out)
                if isinstance(g, JetVar)
                and g.order_in(self.time.name) > 0
                and g.dep in self.evolution
            ]
            if not targets:
                return out
            bindings = {g: self._binding(g) for g in targets}
            out = substitute(out, bindings, checked=False)
        raise ReductionError("time derivatives persist after maximal passes")


# ---------------------------------------------------------------------------
# labeled ingredient records


@dataclass(frozen=True)
class MultiplierPair:
    """One multiplier per equation; combination q1*G1 + q2*G2 + ..."""

    label: str
    q: tuple[Expr, ...]

    def combination(self, system: PDESystem) -> Expr:
        if len(self.q) != len(system.equations):
            raise ValueError(
                f"{self.label}: {len(self.q)} multipliers for "
                f"{len(system.equations)} equations"
            )
        return add(*(mul(qa, eq) for qa, (_, eq) in zip(self.q, system.equations)))


@dataclass(frozen=True)
class ConservedVector:
    """Density/flux pair for a two-variable system."""

    label: str
    density: Expr
    flux: Expr

    def __post_init__(self) -> None:
        order = max(jet_order(self.density), jet_order(self.flux))
        if order > 2:
            raise ValueError(
                f"{self.label}: component order {order} exceeds 2; the "
                "divergence would leave the supported jet range"
            )

    def divergence(self, system: PDESystem) -> Expr:
        return add(
            total_derivative(self.density, system.time, system.ctx),
            total_derivative(self.flux, system.space, system.ctx),
        )


@dataclass(frozen=True)
class VectorField:
    """Point vector field: coefficients on the base and first-order arrows.

    ``xi`` maps independent names to coefficients, ``eta`` dependent names;
    omitted entries are zero.  Coefficients may involve the plain variables
    (and, for the arrows, first-order jets), nothing deeper.
    """

    label: str
    xi: Mapping[str, Expr] = dc_field(default_factory=dict)
    eta: Mapping[str, Expr] = dc_field(default_factory=dict)

    def validate(self, ctx: Context) -> None:
        indep = {v.name for v in ctx.independents}
        dep = {v.name for v in ctx.dependents}
        for name, e in self.xi.items():
            if name not in indep:
                raise ValueError(f"{self.label}: xi component for unknown {name!r}")
            if jet_order(e) > 0:
                raise ValueError(
                    f"{self.label}: xi[{name}] involves jet variables"
                )
        for name, e in self.eta.items():
            if name not in dep:
                raise ValueError(f"{self.label}: eta component for unknown {name!r}")
            if jet_order(e) > 1:
                raise ValueError(
                    f"{self.label}: eta[{name}] exceeds first order"
                )

    def xi_of(self, v: VarId) -> Expr:
        return self.xi.get(v.name, ZERO)

    def eta_of(self, v: VarId) -> Expr:
        return self.eta.get(v.name, ZERO)


def multi_indices(names: Sequence[str], order: int) -> list[tuple[tuple[str, int], ...]]:
    """All derivative multi-indices with 1 <= total order <= ``order``."""
    out = []
    for total in range(1, order + 1):
        for combo in combinations_with_replacement(sorted(names), total):
            counts: dict[str, int] = {}
            for ch in combo:
                counts[ch] = counts.get(ch, 0) + 1
            out.append(tuple(sorted(counts.items())))
    return out


@dataclass(frozen=True)
class ProlongedField:
    base: VectorField
    order: int
    zeta: Mapping[JetVar, Expr]

    def coefficient(self, g: Gen, ctx: Context) -> Expr:
        if isinstance(g, JetVar):
            z = self.zeta.get(g)
            if z is None:
                raise ProlongationError(
                    f"{self.base.label} prolonged to order {self.order} has "
                    f"no coefficient for {g.name}"
                )
            return z
        if g.kind == INDEPENDENT:
            return self.base.xi_of(g)
        if g.kind == DEPENDENT:
            return self.base.eta_of(g)
        return ZERO  # parameters do not move


def prolong(fieldv: VectorField, order: int, ctx: Context) -> ProlongedField:
    """Standard prolongation: zeta_{J,i} = D_i zeta_J - sum_k D_i(xi^k) u_{J,k}.

    Coefficients are built order by order: each jet of the next order is
    reached from its first parent in the current one; mixed partials
    commute, so the choice of parent does not affect the result.
    """
    fieldv.validate(ctx)
    if order + 1 > ctx.max_order:
        raise ValueError(
            f"prolongation to order {order} can produce jets of order "
            f"{order + 1}; raise the context max_order"
        )
    zeta: dict[JetVar, Expr] = {}
    for dep in ctx.dependents:
        layer: dict[Gen, Expr] = {dep: fieldv.eta_of(dep)}
        for _ in range(order):
            children: dict[JetVar, Expr] = {}
            for parent, parent_expr in layer.items():
                for w in ctx.independents:
                    child = ctx.bump(parent, w)
                    if child in children:
                        continue
                    pieces = [total_derivative(parent_expr, w, ctx)]
                    for k in ctx.independents:
                        dxi = total_derivative(fieldv.xi_of(k), w, ctx)
                        if not is_zero_expr(dxi):
                            pieces.append(neg(mul(dxi, var(ctx.bump(parent, k)))))
                    children[child] = add(*pieces)
            zeta.update(children)
            layer = children
    return ProlongedField(fieldv, order, zeta)


def apply_field(prol: ProlongedField, e: Expr, ctx: Context) -> Expr:
    """Action of the prolonged field on an expression."""
    pieces = []
    for g in _sorted_refs(e):
        pe = partial(e, g)
        if is_zero_expr(pe):
            continue
        coeff = prol.coefficient(g, ctx)
        if is_zero_expr(coeff):
            continue
        pieces.append(mul(coeff, pe))
    return add(*pieces)


# ---------------------------------------------------------------------------
# verification predicates


def multiplier_condition(system: PDESystem, pair: MultiplierPair) -> dict[str, PolyNF]:
    """Euler operator of the multiplier combination, per dependent.

    Zero for every dependent (as a polynomial identity, off shell) is
    exactly the condition for the combination to be a total divergence.
    """
    combo = pair.combination(system)
    return {
        d.name: normalize(euler_operator(combo, d, system.ctx))
        for d in system.ctx.dependents
    }


def divergence_match(
    system: PDESystem, pair: MultiplierPair, vec: ConservedVector
) -> PolyNF:
    """D_t(density) + D_x(flux) - multiplier combination, normalized."""
    return normalize(add(vec.divergence(system), neg(pair.combination(system))))


def symmetry_invariance(system: PDESystem, fieldv: VectorField) -> dict[str, PolyNF]:
    """Prolonged action on each equation, reduced on shell and normalized."""
    order = max(jet_order(eq) for _, eq in system.equations)
    prol = prolong(fieldv, order, system.ctx)
    return {
        label: normalize(system.reduce(apply_field(prol, eq, system.ctx)))
        for label, eq in system.equations
    }


def association_residual(
    system: PDESystem, fieldv: VectorField, vec: ConservedVector
) -> dict[str, PolyNF]:
    """Invariance of a conserved vector under a symmetry, on shell.

    Components of  prX(T^i) + T^i D_k xi^k - T^k D_k xi^i  reduced against
    the evolution form; both must vanish for the pair to be associated.
    """
    ctx = system.ctx
    order = max(jet_order(vec.density), jet_order(vec.flux), 1)
    prol = prolong(fieldv, order, ctx)
    t, x = system.time, system.space
    xit, xix = fieldv.xi_of(t), fieldv.xi_of(x)
    dt_xit = total_derivative(xit, t, ctx)
    dx_xix = total_derivative(xix, x, ctx)
    dt_xix = total_derivative(xix, t, ctx)
    dx_xit = total_derivative(xit, x, ctx)
    trace = add(dt_xit, dx_xix)
    comp_t = add(
        apply_field(prol, vec.density, ctx),
        mul(vec.density, trace),
        neg(add(mul(vec.density, dt_xit), mul(vec.flux, dx_xit))),
    )
    comp_x = add(
        apply_field(prol, vec.flux, ctx),
        mul(vec.flux, trace),
        neg(add(mul(vec.density, dt_xix), mul(vec.flux, dx_xix))),
    )
    return {
        t.name: normalize(system.reduce(comp_t)),
        x.name: normalize(system.reduce(comp_x)),
    }
