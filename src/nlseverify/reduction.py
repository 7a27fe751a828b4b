"""Canonical coordinates, double reduction, and solution classification.

The combination of time translation and internal rotation (rate ``c``)
straightens to a pure translation in canonical coordinates

    s = t,  r = x,  w = sqrt(u^2 + v^2),  p = arctan(v/u) - c*t,

with inverse u = w*cos(p + c*s), v = w*sin(p + c*s).  The coordinates are
built from the problem file: its time and space letters become s and r,
its two dependents (real and imaginary part) become w and p.  Solutions
invariant under the combination have w and p independent of s;
substituting the constant-amplitude profile w = sqrt(eps) turns each
equation into a rotation by the phase p + c*s of two factors in p(r)
alone, which this module derives from the substituted equations and
checks.

Solution candidates (a closed form per dependent, with parameter
constraints) are classified numerically on a deterministic low-discrepancy
point set: ``exact`` when every equation vanishes pointwise,
``reduced-only`` when only the angular combination u*G1 + v*G2 (each
dependent times its equation, in declaration order) does, ``neither``
otherwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .exprs import (
    DEPENDENT,
    Context,
    Expr,
    ExprError,
    Gen,
    JetVar,
    ZERO,
    add,
    collect_refs,
    cos_,
    eval_numeric,
    mul,
    neg,
    pow_,
    sin_,
    sub,
    substitute,
    var,
)
from .jets import MultiplierPair, PDESystem, iterated_derivative, multi_indices
from .normal import PolyNF, TrigAtom, normalize, replace_even_powers


@dataclass(frozen=True)
class CanonicalTransform:
    """Change of variables that straightens translation-plus-rotation."""

    orig_ctx: Context
    red_ctx: Context
    theta: Expr  # p + c*s, the restored phase
    table: dict[Gen, Expr]  # original generators -> reduced expressions
    derive: Callable[[JetVar], Expr]  # reduced image of an original jet
    jac: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]
    jac_det: Expr

    def pushforward(self, e: Expr) -> Expr:
        """Rewrite an original-variable expression in reduced variables,
        under the invariance ansatz (no s-dependence of w, p).  Jets enter
        the table on first use, so none deeper than an input is derived."""
        for g in collect_refs(e):
            if isinstance(g, JetVar) and g not in self.table:
                self.table[g] = self.derive(g)
        return substitute(e, self.table)

    def forward_eval(
        self, t: float, x: float, u: float, v: float, params: Mapping[str, float]
    ) -> tuple[float, float, float, float]:
        """Numeric forward map (s, r, w, p).

        Uses atan2 so the angle is defined for all (u, v) != (0, 0); on
        the half-plane u > 0 it agrees with the arctan formula.
        """
        c = float(params["c"])
        return (t, x, math.hypot(u, v), math.atan2(v, u) - c * t)

    def transform_conserved(self, density: Expr, flux: Expr) -> dict[str, PolyNF]:
        """Reduced components of a conserved vector.

        With new components stacked as (T^s, T^r), the rule is
        adj(A)^T applied to the pushed-forward (T^t, T^x), where A is the
        Jacobian of the old independents in the new ones.  Here A is the
        identity (s = t, r = x), so the content is the pushforward plus
        trigonometric collection.
        """
        (a, b), (cc, d) = self.jac
        adj_t = ((d, neg(cc)), (neg(b), a))
        old = (self.pushforward(density), self.pushforward(flux))
        new_s = add(mul(adj_t[0][0], old[0]), mul(adj_t[0][1], old[1]))
        new_r = add(mul(adj_t[1][0], old[0]), mul(adj_t[1][1], old[1]))
        return {"s": normalize(new_s), "r": normalize(new_r)}


def build_canonical_transform(system: PDESystem) -> CanonicalTransform:
    """The transform for a system with two dependents.  The reduced context
    declares the file's parameters plus c, eps and sqeps; a file parameter
    named r, s, w or p clashes with the reduced variables (ValueError)."""
    orig = system.ctx
    params = [q.name for q in orig.parameters]
    params += [n for n in ("c", "eps", "sqeps") if n not in params]
    red = Context(("r", "s"), ("w", "p"), params, orig.max_order)
    r, s, w, p, c = red["r"], red["s"], red["w"], red["p"], red["c"]
    theta = add(var(p), mul(var(c), var(s)))
    images = (mul(var(w), cos_(theta)), mul(var(w), sin_(theta)))

    # A jet's image is the full derivative (D_t -> D_s, D_x -> D_r) with the
    # invariance ansatz imposed after it: every s-derivative of w, p is zero.
    kill: dict[Gen, Expr] = {}
    for dep in (w, p):
        for word in multi_indices(("r", "s"), red.max_order):
            if "s" in word:
                kill[red.jet(dep, word)] = ZERO
    t, x = system.time, system.space
    letter = {t.name: "s", x.name: "r"}
    table: dict[Gen, Expr] = {t: var(s), x: var(r)}
    table.update(zip(orig.dependents, images, strict=True))

    def derive(g: JetVar) -> Expr:
        mapped = "".join(sorted(letter[ch] for ch in g.suffix))
        return substitute(iterated_derivative(table[g.dep], mapped, red), kill)

    jac = (
        (
            iterated_derivative(table[t], "s", red),
            iterated_derivative(table[x], "s", red),
        ),
        (
            iterated_derivative(table[t], "r", red),
            iterated_derivative(table[x], "r", red),
        ),
    )
    det = sub(mul(jac[0][0], jac[1][1]), mul(jac[0][1], jac[1][0]))
    return CanonicalTransform(orig, red, theta, table, derive, jac, det)


@dataclass(frozen=True)
class ReducedODE:
    """The system restricted to constant-amplitude invariant profiles.

    ``residual`` is the angular combination u*G1 + v*G2 after the
    substitution, with the amplitude parameter eliminated exactly;
    ``phase_balance`` and ``curvature`` are the two factors whose joint
    vanishing is equivalent to the full substituted system.
    """

    transform: CanonicalTransform
    residual: PolyNF  # eps * (phase_balance * sin(2 theta) - curvature * cos(2 theta))
    phase_balance: PolyNF  # (G1 sin(theta) + G2 cos(theta)) / sqeps
    curvature: PolyNF  # (G2 sin(theta) - G1 cos(theta)) / sqeps
    equation_subs: tuple[tuple[str, PolyNF], ...]  # each over sqrt-amplitude

    def factorization_residuals(self) -> dict[str, PolyNF]:
        """Exact identities tying the substituted system to the factors.

        All three must normalize to zero.  Because (sin, cos) rotations
        are invertible, the identities prove: both substituted equations
        vanish if and only if phase_balance = 0 and curvature = 0.
        """
        red = self.transform.red_ctx
        theta = self.transform.theta
        eps, sqeps = var(red["eps"]), var(red["sqeps"])
        balance_eps = self.phase_balance.to_expr()
        balance_sq = substitute(balance_eps, {red["eps"]: pow_(sqeps, 2)})
        curv = self.curvature.to_expr()
        two_theta = mul(2, theta)
        expected_residual = mul(
            eps, sub(mul(balance_eps, sin_(two_theta)), mul(curv, cos_(two_theta)))
        )
        label1, label2 = self.equation_subs[0][0], self.equation_subs[1][0]
        expected_1 = mul(sqeps, sub(mul(balance_sq, sin_(theta)), mul(curv, cos_(theta))))
        expected_2 = mul(sqeps, add(mul(balance_sq, cos_(theta)), mul(curv, sin_(theta))))
        return {
            "combination": normalize(sub(self.residual.to_expr(), expected_residual)),
            label1: normalize(sub(self.equation_subs[0][1].to_expr(), expected_1)),
            label2: normalize(sub(self.equation_subs[1][1].to_expr(), expected_2)),
        }


def reduced_ode(transform: CanonicalTransform, system: PDESystem) -> ReducedODE:
    """Substitute the constant-amplitude invariant profile and derive the
    two factors by rotating the substituted equations back by theta.

    Raises ValueError when sqrt(eps) cannot be eliminated exactly, or when a
    factor still holds a trig atom or s: then the system does not reduce."""
    red = transform.red_ctx
    w, s, sqeps, eps = red["w"], red["s"], red["sqeps"], red["eps"]
    freeze: dict[Gen, Expr] = {w: var(sqeps)}
    for word in multi_indices(("r", "s"), red.max_order):
        freeze[red.jet(w, word)] = ZERO

    def on_profile(e: Expr) -> Expr:
        return substitute(transform.pushforward(e), freeze)

    deps = [var(d) for d in system.ctx.dependents]
    combo = MultiplierPair("angular", tuple(deps)).combination(system)
    residual = replace_even_powers(normalize(on_profile(combo)), sqeps, eps)
    trees = tuple((label, on_profile(eq)) for label, eq in system.equations)
    subs = tuple((label, normalize(tree)) for label, tree in trees)

    (_, g1), (_, g2) = trees
    sin_t, cos_t = sin_(transform.theta), cos_(transform.theta)
    over_sqeps = pow_(var(sqeps), -1)
    rotated = {
        "phase balance": mul(add(mul(g1, sin_t), mul(g2, cos_t)), over_sqeps),
        "curvature": mul(sub(mul(g2, sin_t), mul(g1, cos_t)), over_sqeps),
    }
    factors = []
    for name, tree in rotated.items():
        nf = replace_even_powers(normalize(tree), sqeps, eps)
        for mono, _ in nf.terms:
            for g, _ in mono:
                if isinstance(g, TrigAtom) or g == s:
                    raise ValueError(f"the {name} factor still holds {g.name}")
        factors.append(nf)
    return ReducedODE(transform, residual, factors[0], factors[1], subs)


# ---------------------------------------------------------------------------
# solution candidates and numeric classification


@dataclass(frozen=True)
class SolutionCandidate:
    """A closed form for each dependent, keyed by its name, with the
    parameter constraints of its case."""

    label: str
    constraints: tuple[tuple[str, Expr], ...]
    fields: Mapping[str, Expr]
    suspect: bool = False

    @property
    def case(self) -> str:
        return self.label.split("-", 1)[0]

    def check_explicit(self) -> None:
        """Raise ValueError unless every field is an explicit function of
        the base variables (no dependent variable or jet in any)."""
        for dep_name, expr in self.fields.items():
            for g in collect_refs(expr):
                if isinstance(g, JetVar) or g.kind == DEPENDENT:
                    raise ValueError(
                        f"{self.label}: candidate {dep_name} must be an explicit "
                        f"function of the base variables, found {g}"
                    )


@dataclass(frozen=True)
class DrawResult:
    params: dict[str, float]
    eq_residual: float
    reduced_residual: float
    verdict: str
    cause: str = ""  # why a "fail" draw failed


@dataclass(frozen=True)
class CandidateReport:
    candidate: SolutionCandidate
    draws: tuple[DrawResult, ...]
    verdict: str
    adjudicated: bool


_PLASTIC = 1.32471795724474602596  # real root of z^3 = z + 1


def low_discrepancy_points(n: int):
    """Deterministic 2d low-discrepancy sequence of (x, t) on [0, 2 pi] x [0, 1]."""
    a1 = 1.0 / _PLASTIC
    a2 = 1.0 / (_PLASTIC * _PLASTIC)
    pts = []
    for i in range(1, n + 1):
        pts.append((2.0 * math.pi * ((0.5 + i * a1) % 1.0), (0.5 + i * a2) % 1.0))
    return pts


def candidate_bindings(cand: SolutionCandidate, system: PDESystem) -> dict[Gen, Expr]:
    """Replace the dependents and their jets, up to the equations' order,
    by the candidate's closed forms and their derivatives."""
    cand.check_explicit()
    ctx = system.ctx
    names = [vv.name for vv in ctx.independents]
    out: dict[Gen, Expr] = {}
    for dep_name, expr in cand.fields.items():
        dep = ctx[dep_name]
        out[dep] = expr
        for word in multi_indices(names, system.order):
            out[ctx.jet(dep, word)] = iterated_derivative(expr, word, ctx)
    return out


def draw_parameters(ctx: Context, seed: int, count: int) -> list[dict[str, float]]:
    """Seeded parameter draws on [0.1, 2], identical across candidates for
    a given seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append({p.name: rng.uniform(0.1, 2.0) for p in ctx.parameters})
    return out


def _apply_constraints(
    cand: SolutionCandidate, base: Mapping[str, float], ctx: Context
) -> dict[str, float]:
    params = dict(base)
    for name, cexpr in cand.constraints:
        bind = {ctx[k]: val for k, val in params.items()}
        params[name] = eval_numeric(cexpr, bind)
    return params


def candidate_residual_exprs(
    cand: SolutionCandidate, system: PDESystem
) -> tuple[tuple[Expr, ...], Expr]:
    """The equations and the angular combination u*G1 + v*G2 with the
    candidate substituted.  They do not depend on the parameter values."""
    bindings = candidate_bindings(cand, system)
    eq_exprs = tuple(substitute(eq, bindings) for _, eq in system.equations)
    deps = [var(d) for d in system.ctx.dependents]
    combo = MultiplierPair("angular", tuple(deps)).combination(system)
    return eq_exprs, substitute(combo, bindings)


def candidate_equation_residuals(
    residual_exprs: tuple[tuple[Expr, ...], Expr],
    system: PDESystem,
    params: Mapping[str, float],
    points: Sequence[tuple[float, float]] | np.ndarray,
) -> tuple[float, float]:
    """(max |G_a|, max |u*G1 + v*G2|) over the point set, evaluated on
    arrays of all the points; a nan anywhere makes its maximum nan."""
    ctx = system.ctx
    xs, ts = np.array(points, dtype=float).T
    bind = {ctx[k]: val for k, val in params.items()}
    bind[system.time] = ts
    bind[system.space] = xs
    eq_exprs, combo_expr = residual_exprs
    with np.errstate(all="ignore"):
        eq_max = np.max([np.max(np.abs(eval_numeric(e, bind))) for e in eq_exprs])
        combo_max = np.max(np.abs(eval_numeric(combo_expr, bind)))
    return float(eq_max), float(combo_max)


def classify(
    system: PDESystem,
    candidates: Sequence[SolutionCandidate],
    seed: int = 7,
    tol: float = 1e-10,
) -> list[CandidateReport]:
    """Adjudicate every candidate on three seeded draws and 100 fixed
    sample points.  A draw that leaves the numeric domain or has a
    non-finite residual fails, with its cause, and fails the candidate."""
    points = np.array(low_discrepancy_points(100))
    bases = draw_parameters(system.ctx, seed, 3)
    reports = []
    for cand in candidates:
        residual_exprs = candidate_residual_exprs(cand, system)
        results = []
        for base in bases:
            try:
                params = _apply_constraints(cand, base, system.ctx)
                eq_max, combo_max = candidate_equation_residuals(
                    residual_exprs, system, params, points
                )
            except ExprError as exc:
                results.append(DrawResult(dict(base), math.nan, math.nan, "fail", str(exc)))
                continue
            cause = ""
            if not (math.isfinite(eq_max) and math.isfinite(combo_max)):
                verdict = "fail"
                cause = f"non-finite residual eq={eq_max:.3e},angular={combo_max:.3e}"
            elif eq_max < tol:
                verdict = "exact"
            elif combo_max < tol:
                verdict = "reduced-only"
            else:
                verdict = "neither"
            results.append(DrawResult(params, eq_max, combo_max, verdict, cause))
        verdicts = {r.verdict for r in results}
        overall = results[0].verdict if len(verdicts) == 1 else "mixed"
        if "fail" in verdicts:
            overall = "fail"
        reports.append(
            CandidateReport(cand, tuple(results), overall, adjudicated=not cand.suspect)
        )
    return reports
