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
(``jets.jet_table``).  Pushing forward with the constant amplitude
w = sqrt(eps) turns each equation into a rotation by the phase p + c*s of
two factors in p(r) alone, which this module derives from the substituted
equations and checks.  Everything is exact on normal forms, where
``sqrt(eps)`` is an atom whose square is eps.

Solution candidates (a closed form per dependent, with parameter
constraints) get their jets from the same table: each dependent and every
jet that occurs in the equations becomes the closed form and its total
derivatives, normalized once per candidate.  The file's own equations are
then evaluated with those jets bound, on a deterministic low-discrepancy
point set, and classified: ``exact`` when every equation vanishes
pointwise, ``reduced-only`` when only the angular combination u*G1 + v*G2
(each dependent times its equation, in declaration order) does,
``neither`` otherwise.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Mapping, Sequence

from .exprs import (
    DEPENDENT,
    Context,
    Expr,
    ExprError,
    Frozen,
    Gen,
    JetVar,
    Program,
    collect_refs,
    compile_numeric,
    func,
    ref_sort_key,
    var,
)
from .jets import (
    PDESystem,
    explicit_partial,
    form_generators,
    jet_table,
    substitute_forms,
    total_derivative,
)
from .normal import (
    Atom,
    Form,
    NormalizationError,
    PolyNF,
    accumulate,
    as_form,
    mul_forms,
    normalize,
    pow_form,
    trig_form,
)


class CanonicalTransform(Frozen):
    """Change of variables that straightens translation-plus-rotation."""

    _fields = (
        "system",  # in the original variables
        "red_ctx",
        "theta",  # p + c*s, the restored phase
    )

    def pushforward(self, forms: Sequence[Form], amplitude: Form) -> tuple[Form, ...]:
        """Rewrite original-variable forms in reduced variables on the
        invariant profile u = amplitude*cos(theta), v = amplitude*sin(theta).

        w and p do not depend on s, so a time letter of a jet is the
        explicit partial in s and a space letter the total derivative D_r.
        """
        red, system = self.red_ctx, self.system
        s, r = red["s"], red["r"]
        u, v = system.ctx.dependents
        images = {
            system.time: as_form(var(s)),
            system.space: as_form(var(r)),
            u: mul_forms(amplitude, trig_form("cos", self.theta)),
            v: mul_forms(amplitude, trig_form("sin", self.theta)),
        }

        def derive(f: Form, letter: str) -> Form:
            if letter == system.time.name:
                return explicit_partial(f, s)
            return total_derivative(f, r, red)

        table = jet_table(system.ctx, images, map(form_generators, forms), derive)
        return tuple(substitute_forms(f, table) for f in forms)

    @property
    def root_eps(self) -> Form:
        """The constant amplitude sqrt(eps)."""
        return as_form(func("sqrt", var(self.red_ctx["eps"])))

    @property
    def jac_det(self) -> Form:
        """det D(t,x)/D(s,r) of the pushed-forward independents."""
        red, system = self.red_ctx, self.system
        s, r = red["s"], red["r"]
        t, x = self.pushforward(
            (as_form(var(system.time)), as_form(var(system.space))), as_form(var(red["w"]))
        )
        det = mul_forms(explicit_partial(t, s), explicit_partial(x, r))
        return accumulate(det, mul_forms(explicit_partial(x, s), explicit_partial(t, r)), -1)


def build_canonical_transform(system: PDESystem) -> CanonicalTransform:
    """The transform for a system with two dependents.  The reduced context
    declares the file's parameters plus c and eps; a file parameter named
    r, s, w or p clashes with the reduced variables (ValueError)."""
    params = [q.name for q in system.ctx.parameters]
    params += [n for n in ("c", "eps") if n not in params]
    red = Context(("r", "s"), ("w", "p"), params, system.ctx.max_order)
    theta = normalize(red.parse("p + c*s"))
    return CanonicalTransform(system, red, theta)


class ReducedODE(Frozen):
    """The system restricted to constant-amplitude invariant profiles.

    ``residual`` is the angular combination u*G1 + v*G2 after the
    substitution, where sqrt(eps) squares to eps; ``phase_balance`` and
    ``curvature`` are the two factors whose joint vanishing is equivalent
    to the full substituted system.
    """

    _fields = (
        "transform",
        "residual",  # eps * (phase_balance * sin(2 theta) - curvature * cos(2 theta))
        "phase_balance",  # (G1 sin(theta) + G2 cos(theta)) / sqrt(eps)
        "curvature",  # (G2 sin(theta) - G1 cos(theta)) / sqrt(eps)
        "equation_subs",  # (label, substituted equation) pairs, each over sqrt(eps)
    )

    def factorization_residuals(self) -> dict[str, PolyNF]:
        """Exact identities tying the substituted system to the factors.

        All three must normalize to zero.  Because (sin, cos) rotations
        are invertible, the identities prove: both substituted equations
        vanish if and only if phase_balance = 0 and curvature = 0.
        """
        tr = self.transform
        theta, amp = tr.theta, tr.root_eps
        sin_t, cos_t = trig_form("sin", theta), trig_form("cos", theta)
        two_theta = normalize(theta.form(2))
        sin_2t, cos_2t = trig_form("sin", two_theta), trig_form("cos", two_theta)
        balance, curv = self.phase_balance.form(), self.curvature.form()

        def rotated(a: Form, b: Form, sign: int) -> Form:  # balance*a + sign*curv*b
            return accumulate(mul_forms(balance, a), mul_forms(curv, b), sign)

        (label1, sub1), (label2, sub2) = self.equation_subs
        eps = as_form(var(tr.red_ctx["eps"]))
        expected = {
            "combination": (self.residual, mul_forms(eps, rotated(sin_2t, cos_2t, -1))),
            label1: (sub1, mul_forms(amp, rotated(sin_t, cos_t, -1))),
            label2: (sub2, mul_forms(amp, rotated(cos_t, sin_t, 1))),
        }
        return {k: normalize(accumulate(got.form(), want, -1)) for k, (got, want) in expected.items()}


def reduced_ode(transform: CanonicalTransform) -> ReducedODE:
    """Substitute the constant-amplitude invariant profile and derive the
    two factors by rotating the substituted equations back by theta; the
    residual is the angular combination u*G1 + v*G2 of the substituted
    dependents and equations.

    Raises ValueError when a factor still holds a sin, a cos or s: then
    the system does not reduce."""
    system = transform.system
    deps = system.ctx.dependents
    if len(deps) != len(system.equations):
        raise ValueError("the angular combination needs one equation per dependent")
    amp = transform.root_eps
    *pushed, u, v = transform.pushforward(
        (*system.equation_forms, *(as_form(var(d)) for d in deps)), amp
    )
    subs = tuple((label, normalize(f)) for (label, _), f in zip(system.equations, pushed))
    g1, g2 = (nf.form() for _, nf in subs)
    combo = accumulate(mul_forms(u, g1), mul_forms(v, g2))
    sin_t, cos_t = trig_form("sin", transform.theta), trig_form("cos", transform.theta)
    over_amp = pow_form(amp, -1)
    rotated = {
        "phase balance": accumulate(mul_forms(g1, sin_t), mul_forms(g2, cos_t)),
        "curvature": accumulate(mul_forms(g2, sin_t), mul_forms(g1, cos_t), -1),
    }
    s = transform.red_ctx["s"]
    factors = []
    for name, f in rotated.items():
        nf = normalize(mul_forms(f, over_amp))
        for mono, _ in nf.terms:
            for g, _ in mono:
                if (isinstance(g, Atom) and g.fn != "sqrt") or g == s:
                    raise ValueError(f"the {name} factor still holds {g.name}")
        factors.append(nf)
    return ReducedODE(transform, normalize(combo), factors[0], factors[1], subs)


def first_integral_residual(ode: ReducedODE, flux: Form) -> PolyNF:
    """Double reduction: D_r of a conserved flux pushed forward at
    w = sqrt(eps), plus eps*curvature.  Zero means the reduced flux T^r is a
    first integral: D_r T^r = -eps*curvature, so the curvature factor
    vanishes exactly where T^r is constant along the profile."""
    transform = ode.transform
    red = transform.red_ctx
    (reduced_flux,) = transform.pushforward((flux,), transform.root_eps)
    gap = total_derivative(reduced_flux, red["r"], red)
    return normalize(accumulate(gap, mul_forms(as_form(var(red["eps"])), ode.curvature.form())))


# ---------------------------------------------------------------------------
# solution candidates and numeric classification


class SolutionCandidate(Frozen):
    """A closed form for each dependent, keyed by its name, with the
    parameter constraints of its case."""

    _fields = ("label", "constraints", "fields", "suspect")

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


class DrawResult(Frozen):
    _fields = ("params", "eq_residual", "reduced_residual", "verdict", "cause")  # cause: why a "fail" draw failed


class CandidateReport(Frozen):
    _fields = ("candidate", "draws", "verdict")


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


def _generators(exprs: Sequence[Expr]) -> tuple[Gen, ...]:
    return tuple(sorted(set().union(*map(collect_refs, exprs)), key=ref_sort_key))


def compile_constraints(candidates: Sequence[SolutionCandidate]) -> dict[Expr, Program]:
    """Each distinct constraint value of the candidates compiled over the
    parameters it names."""
    values = {c for cand in candidates for _, c in cand.constraints}
    return {c: compile_numeric((c,), {}, _generators((c,))) for c in values}


def apply_constraints(
    cand: SolutionCandidate, programs: Mapping[Expr, Program], base: Mapping[str, float]
) -> dict[str, float]:
    """The draw with the candidate's constraints applied in order, each
    seeing the values the previous ones set."""
    params = dict(base)
    for name, c in cand.constraints:
        program = programs[c]
        (params[name],) = program.run([params[p.name] for p in program.inputs])
    return params


def candidate_jets(cand: SolutionCandidate, system: PDESystem) -> dict[Gen, Expr]:
    """Each dependent and every jet the equation trees name, which the compiled
    equations bind, as the candidate's closed form and its total derivatives,
    normalized once.  They do not depend on the parameter values."""
    cand.check_explicit()
    ctx = system.ctx

    def derive(f: Form, letter: str) -> Form:
        return total_derivative(f, ctx[letter], ctx)

    try:
        images = {ctx[name]: as_form(e) for name, e in cand.fields.items()}
        table = jet_table(ctx, images, (collect_refs(eq) for _, eq in system.equations), derive)
        return {g: normalize(f).to_expr() for g, f in table.items()}
    except NormalizationError as exc:
        raise NormalizationError(f"{cand.label}: {exc}") from None


def compile_jets(jets: Mapping[Gen, Expr]) -> tuple[tuple[Gen, ...], Program]:
    """A candidate's jets (from :func:`candidate_jets`) compiled over the
    base variables they name, with the generators they give values to."""
    exprs = tuple(jets.values())
    return tuple(jets), compile_numeric(exprs, {}, _generators(exprs))


def compile_equations(system: PDESystem) -> Program:
    """The system's equations compiled over every generator they name."""
    exprs = tuple(eq for _, eq in system.equations)
    return compile_numeric(exprs, {}, _generators(exprs))


def candidate_equation_residuals(
    jets: tuple[tuple[Gen, ...], Program],
    equations: Program,
    system: PDESystem,
    values: Mapping[Gen, object],
) -> tuple[float, float]:
    """(max |G_a|, max |u*G1 + v*G2|) over the point set: the candidate's
    compiled jets evaluated with ``values`` (the parameters, and the base
    variables as arrays of all the points), then the compiled equations
    with them bound; a nan anywhere makes its maximum nan.  The caller
    silences numpy's floating-point warnings."""
    import numpy as np  # here and in classify: the exact commands never load it
    values = dict(values)
    gens, program = jets
    values.update(zip(gens, program.run([values[g] for g in program.inputs])))
    gs = equations.run([values[g] for g in equations.inputs])
    eq_max = functools.reduce(np.maximum, [np.abs(g).max() for g in gs])
    angular = sum(values[d] * g for d, g in zip(system.ctx.dependents, gs, strict=True))
    return float(eq_max), float(np.abs(angular).max())


TOL = 1e-10  # largest residual a draw may leave and still vanish


def classify(
    system: PDESystem, candidates: Sequence[SolutionCandidate], seed: int
) -> list[CandidateReport]:
    """Adjudicate every candidate on three seeded draws and 100 fixed
    sample points.  A draw that leaves the numeric domain or has a
    non-finite residual fails, with its cause, and fails the candidate.
    Candidates with equal closed forms share one compiled jet program."""
    import numpy as np
    ctx = system.ctx
    xs, ts = np.array(low_discrepancy_points(100), dtype=float).T
    bases = draw_parameters(ctx, seed, 3)
    by_name = {p.name: p for p in ctx.parameters}
    equations = compile_equations(system)
    constraints = compile_constraints(candidates)
    programs: dict[tuple, tuple[tuple[Gen, ...], Program]] = {}
    reports = []
    with np.errstate(all="ignore"):
        for cand in candidates:
            key = tuple(cand.fields.items())
            jets = programs.get(key)
            if jets is None:
                jets = programs[key] = compile_jets(candidate_jets(cand, system))
            results = []
            for base in bases:
                try:
                    params = apply_constraints(cand, constraints, base)
                    values = {by_name[k]: val for k, val in params.items()}
                    values[system.time], values[system.space] = ts, xs
                    eq_max, combo_max = candidate_equation_residuals(
                        jets, equations, system, values
                    )
                except ExprError as exc:
                    results.append(DrawResult(dict(base), math.nan, math.nan, "fail", str(exc)))
                    continue
                cause = ""
                if not (math.isfinite(eq_max) and math.isfinite(combo_max)):
                    verdict = "fail"
                    cause = f"non-finite residual eq={eq_max:.3e},angular={combo_max:.3e}"
                elif eq_max < TOL:
                    verdict = "exact"
                elif combo_max < TOL:
                    verdict = "reduced-only"
                else:
                    verdict = "neither"
                results.append(DrawResult(params, eq_max, combo_max, verdict, cause))
            verdicts = {r.verdict for r in results}
            overall = results[0].verdict if len(verdicts) == 1 else "mixed"
            if "fail" in verdicts:
                overall = "fail"
            reports.append(CandidateReport(cand, tuple(results), overall))
    return reports
