"""Canonical coordinates, double reduction, and solution classification.

The combination of time translation and internal rotation (rate ``c``)
straightens to a pure translation in canonical coordinates

    s = t,  r = x,  w = sqrt(u^2 + v^2),  p = arctan(v/u) - c*t,

with inverse u = w*cos(p + c*s), v = w*sin(p + c*s).  The coordinates are
built from the problem file: its time and space letters become s and r,
its two dependents (real and imaginary part) become w and p.  Solutions
invariant under the combination have w and p independent of s, so the
pushforward of a jet differentiates the inverse along its letters, a time
letter as the explicit partial in s and a space letter as the total D_r
(``jets.substitute_jets``).  Pushing forward with the constant amplitude
w = sqrt(eps) turns each equation into a rotation by the phase p + c*s of
two factors in p(r) alone, which this module derives from the substituted
equations and checks.

Solution candidates (a closed form per dependent, with parameter
constraints) go through the same substitution, each dependent and every
jet that occurs replaced by the closed form and its total derivatives,
and are classified numerically on a deterministic low-discrepancy
point set: ``exact`` when every equation vanishes pointwise,
``reduced-only`` when only the angular combination u*G1 + v*G2 (each
dependent times its equation, in declaration order) does, ``neither``
otherwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .exprs import (
    DEPENDENT,
    Context,
    Expr,
    ExprError,
    Gen,
    JetVar,
    add,
    collect_refs,
    cos_,
    eval_numeric,
    mul,
    partial,
    pow_,
    sin_,
    sub,
    substitute,
    var,
)
from .jets import PDESystem, substitute_jets, total_derivative
from .normal import PolyNF, TrigAtom, normalize, replace_even_powers


@dataclass(frozen=True)
class CanonicalTransform:
    """Change of variables that straightens translation-plus-rotation."""

    system: PDESystem  # in the original variables
    red_ctx: Context
    theta: Expr  # p + c*s, the restored phase

    def pushforward(self, exprs: Sequence[Expr], amplitude: Expr) -> tuple[Expr, ...]:
        """Rewrite original-variable expressions in reduced variables on the
        invariant profile u = amplitude*cos(theta), v = amplitude*sin(theta).

        w and p do not depend on s, so a time letter of a jet is the
        explicit partial in s and a space letter the total derivative D_r.
        """
        red, system = self.red_ctx, self.system
        s, r = red["s"], red["r"]
        images: dict[Gen, Expr] = {system.time: var(s), system.space: var(r)}
        profile = (mul(amplitude, cos_(self.theta)), mul(amplitude, sin_(self.theta)))
        images.update(zip(system.ctx.dependents, profile, strict=True))

        def derive(e: Expr, letter: str) -> Expr:
            if letter == system.time.name:
                return partial(e, s)
            return total_derivative(e, r, red)

        return substitute_jets(exprs, images, derive)

    @property
    def jac_det(self) -> Expr:
        """det D(t,x)/D(s,r) of the pushed-forward independents."""
        red, system = self.red_ctx, self.system
        s, r = red["s"], red["r"]
        t, x = self.pushforward((var(system.time), var(system.space)), var(red["w"]))
        return sub(mul(partial(t, s), partial(x, r)), mul(partial(x, s), partial(t, r)))


def build_canonical_transform(system: PDESystem) -> CanonicalTransform:
    """The transform for a system with two dependents.  The reduced context
    declares the file's parameters plus c, eps and sqeps; a file parameter
    named r, s, w or p clashes with the reduced variables (ValueError)."""
    params = [q.name for q in system.ctx.parameters]
    params += [n for n in ("c", "eps", "sqeps") if n not in params]
    red = Context(("r", "s"), ("w", "p"), params, system.ctx.max_order)
    theta = add(var(red["p"]), mul(var(red["c"]), var(red["s"])))
    return CanonicalTransform(system, red, theta)


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


def _equations_and_angular(system: PDESystem) -> list[Expr]:
    """The equations, then the angular combination u*G1 + v*G2."""
    eqs = [eq for _, eq in system.equations]
    deps = system.ctx.dependents
    if len(deps) != len(eqs):
        raise ValueError("the angular combination needs one equation per dependent")
    return eqs + [add(*(mul(var(d), eq) for d, eq in zip(deps, eqs)))]


def reduced_ode(transform: CanonicalTransform, system: PDESystem) -> ReducedODE:
    """Substitute the constant-amplitude invariant profile and derive the
    two factors by rotating the substituted equations back by theta.

    Raises ValueError when sqrt(eps) cannot be eliminated exactly, or when a
    factor still holds a trig atom or s: then the system does not reduce."""
    red = transform.red_ctx
    s, sqeps, eps = red["s"], red["sqeps"], red["eps"]
    *trees, combo = transform.pushforward(_equations_and_angular(system), var(sqeps))
    residual = replace_even_powers(normalize(combo), sqeps, eps)
    labels = [label for label, _ in system.equations]
    subs = tuple((label, normalize(tree)) for label, tree in zip(labels, trees))

    g1, g2 = trees
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


def first_integral_residual(ode: ReducedODE, flux: Expr) -> PolyNF:
    """Double reduction: D_r of a conserved flux pushed forward at
    w = sqrt(eps), plus eps*curvature.  Zero means the reduced flux T^r is a
    first integral: D_r T^r = -eps*curvature, so the curvature factor
    vanishes exactly where T^r is constant along the profile."""
    transform = ode.transform
    red = transform.red_ctx
    (reduced_flux,) = transform.pushforward((flux,), var(red["sqeps"]))
    gap = add(
        total_derivative(reduced_flux, red["r"], red),
        mul(var(red["eps"]), ode.curvature.to_expr()),
    )
    return replace_even_powers(normalize(gap), red["sqeps"], red["eps"])


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
    cand.check_explicit()
    ctx = system.ctx
    images = {ctx[name]: expr for name, expr in cand.fields.items()}

    def derive(e: Expr, letter: str) -> Expr:
        return total_derivative(e, ctx[letter], ctx)

    *eq_exprs, combo = substitute_jets(_equations_and_angular(system), images, derive)
    return tuple(eq_exprs), combo


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
