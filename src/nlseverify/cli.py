"""Command line interface.

Machine-readable check records go to stdout (tab-separated, fixed order),
a short human summary goes to stderr.  Exit status: 0 when no record
fails, 2 when at least one fails, 1 for usage or input-format errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import numerics
from .exprs import EvalDomainError, ExprError, UnboundGeneratorError, render
from .jets import (
    association_residual,
    divergence_match,
    multiplier_condition,
    symmetry_invariance,
)
from .normal import NormalizationError, PolyNF, const_nf, nf_sub, normalize
from .problem import Problem, ProblemFormatError, load_problem
from .reduction import build_canonical_transform, classify, reduced_ode
from .report import Report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems
        self.exit(1, f"{self.prog}: error: {message}\n")


def _join(parts: dict[str, PolyNF]) -> str:
    bad = {k: v for k, v in parts.items() if not v.is_zero}
    if not bad:
        return "0"
    return "; ".join(f"{k}: {render(v.to_expr())}" for k, v in bad.items())


def build_parser() -> _Parser:
    p = _Parser(prog="nlseverify", description=__doc__)
    p.add_argument("--problem", metavar="PATH", help="problem file (default: bundled)")
    p.add_argument("--tol", type=float, default=1e-10, help="numeric zero tolerance")
    p.add_argument("--seed", type=int, default=7, help="seed for parameter draws")
    p.add_argument(
        "--printed-variants",
        action="store_true",
        help="swap in the [printed] entries of the problem file",
    )
    p.add_argument("--json-out", metavar="PATH", help="also write records as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="multiplier, divergence, and symmetry identities")
    sub.add_parser("associate", help="symmetry/conserved-vector association matrix")
    sub.add_parser("reduce", help="canonical variables and the reduced profile equation")

    cl = sub.add_parser("classify", help="adjudicate closed-form solution candidates")
    cl.add_argument("--case", help="restrict to one candidate case label prefix")

    sim = sub.add_parser("simulate", help="integrate and audit conserved quantities")
    sim.add_argument("--N", type=int, default=256, help="grid points (power of two, >= 16)")
    sim.add_argument("--dt", type=float, default=1e-3, help="time step")
    sim.add_argument("--T", type=float, default=1.0, help="time horizon")
    sim.add_argument("--L", type=float, default=4.0 * math.pi, help="domain length")
    sim.add_argument(
        "--init",
        choices=("plane-wave", "case1-exact", "random"),
        default="plane-wave",
        help="initial data family",
    )
    sim.add_argument("--a", type=float, default=0.5, help="plane-wave amplitude")
    sim.add_argument("--k", type=float, default=1.0, help="plane-wave wavenumber")
    sim.add_argument("--beta", type=float, default=1.0)
    sim.add_argument("--gamma", type=float, default=0.5)
    sim.add_argument("--delta", type=float, default=1.0)
    sim.add_argument("--eps", type=float, default=1.0)
    sim.add_argument("--c1", type=float, default=0.0)
    sim.add_argument("--sample-every", type=int, default=10, metavar="STEPS")
    sim.add_argument("--drift-tol", type=float, default=1e-6)
    sim.add_argument("--csv-out", metavar="PATH", help="write sampled quantities as CSV")
    return p


def verify_report(problem: Problem) -> Report:
    rep = Report("verify")
    system = problem.system
    for pair in problem.multipliers:
        res = multiplier_condition(system, pair)
        ok = all(v.is_zero for v in res.values())
        rep.add(
            f"verify.multiplier.{pair.label}",
            pair.label,
            "pass" if ok else "fail",
            _join({f"E_{k}": v for k, v in res.items()}),
            "E_w[q1*g1 + q2*g2] = 0 for each dependent w",
        )
    for pair, vec in zip(problem.multipliers, problem.conserved):
        nf = divergence_match(system, pair, vec)
        rep.add(
            f"verify.divergence.{pair.label}.{vec.label}",
            f"{pair.label},{vec.label}",
            "pass" if nf.is_zero else "fail",
            render(nf.to_expr()),
            "D_t[T^t] + D_x[T^x] - (q1*g1 + q2*g2) = 0",
        )
    for fieldv in problem.symmetries:
        res = symmetry_invariance(system, fieldv)
        ok = all(v.is_zero for v in res.values())
        rep.add(
            f"verify.symmetry.{fieldv.label}",
            fieldv.label,
            "pass" if ok else "fail",
            _join(res),
            "pr(X)[g] = 0 modulo the evolution form",
        )
    return rep


def associate_report(problem: Problem) -> Report:
    rep = Report("associate")
    for fieldv in problem.symmetries:
        for vec in problem.conserved:
            res = association_residual(problem.system, fieldv, vec)
            ok = all(v.is_zero for v in res.values())
            rep.add(
                f"associate.{fieldv.label}.{vec.label}",
                f"{fieldv.label},{vec.label}",
                "associated" if ok else "not-associated",
                _join(res),
                "pr(X)[T] + T*div(xi) - T.(D xi) = 0 modulo the evolution form",
            )
    return rep


def reduce_report(problem: Problem) -> Report:
    ctx = problem.ctx
    want_deps = tuple(d.name for d in ctx.dependents)
    want_indeps = tuple(i.name for i in ctx.independents)
    if want_deps != ("u", "v") or set(want_indeps) != {"t", "x"}:
        raise UsageError(
            "reduce expects the cubic layout: independents t,x and dependents u,v"
        )
    rep = Report("reduce")
    tr = build_canonical_transform()
    det_gap = nf_sub(normalize(tr.jac_det), const_nf(1))
    rep.add(
        "reduce.jacobian",
        "(t,x)->(s,r)",
        "pass" if det_gap.is_zero else "fail",
        render(det_gap.to_expr()),
        "det[D(t,x)/D(s,r)] = 1",
    )
    by_label = {vec.label: vec for vec in problem.conserved}
    if "t2" in by_label:
        comps = tr.transform_conserved(by_label["t2"].density, by_label["t2"].flux)
        rep.add(
            "reduce.density.t2",
            "t2",
            "info",
            render(comps["s"].to_expr()),
            "density in canonical variables (invariant profile)",
        )
        rep.add(
            "reduce.flux.t2",
            "t2",
            "info",
            render(comps["r"].to_expr()),
            "flux in canonical variables (invariant profile)",
        )
    try:
        ode = reduced_ode(tr, problem.system)
    except ValueError as exc:  # the amplitude cannot be eliminated exactly
        ode, verdict, residual = None, "fail", str(exc)
    else:
        verdict, residual = "info", render(ode.residual.to_expr())
    rep.add(
        "reduce.ode",
        "u*g1 + v*g2",
        verdict,
        residual,
        "constant-amplitude invariant profile, w^2 = eps",
    )
    if ode is not None:
        rep.add(
            "reduce.phase-balance",
            "p_r",
            "info",
            render(ode.phase_balance.to_expr()),
            "first factor of the reduced profile equation",
        )
        rep.add(
            "reduce.curvature",
            "p_rr",
            "info",
            render(ode.curvature.to_expr()),
            "second factor of the reduced profile equation",
        )
        fres = ode.factorization_residuals()
        rep.add(
            "reduce.factorization",
            ",".join(sorted(fres)),
            "pass" if all(v.is_zero for v in fres.values()) else "fail",
            _join(fres),
            "substituted system is an invertible rotation of the two factors",
        )
    for key in sorted(problem.reduced_notes):
        rep.add(
            f"reduce.printed.{key}",
            key,
            "info",
            problem.reduced_notes[key],
            "as printed; not parsed",
        )
    return rep


def classify_report(problem: Problem, seed: int, tol: float, case: str | None) -> Report:
    rep = Report("classify")
    cands = problem.candidates
    if case is not None:
        cands = tuple(c for c in cands if c.case == case)
        if not cands:
            raise UsageError(f"no candidates in case {case!r}")
    for cr in classify(problem.system, cands, seed=seed, tol=tol):
        causes = [d.cause for d in cr.draws if d.cause]
        eq_max = max(d.eq_residual for d in cr.draws)
        ang_max = max(d.reduced_residual for d in cr.draws)
        rep.add(
            f"classify.{cr.candidate.label}",
            cr.candidate.label,
            cr.verdict if cr.adjudicated or cr.verdict == "fail" else "suspect",
            causes[0] if causes else f"eq={eq_max:.3e},angular={ang_max:.3e}",
            "max|g_a| and max|u*g1 + v*g2| over seeded draws and sample points",
        )
    return rep


def simulate_report(problem: Problem, args: argparse.Namespace) -> Report:
    rep = Report("simulate")
    try:
        grid = numerics.Grid(args.N, args.L)
    except ValueError as ve:
        raise UsageError(str(ve)) from None
    if args.dt <= 0 or args.T <= 0 or args.sample_every < 1:
        raise UsageError("dt, T must be positive and sample-every at least 1")
    params = {
        "beta": args.beta,
        "gamma": args.gamma,
        "delta": args.delta,
        "eps": args.eps,
        "c": 0.0,
        "c1": args.c1,
    }
    if args.init == "plane-wave":
        state = numerics.plane_wave_exact(grid, args.a, args.k, 0.0, params)
    elif args.init == "case1-exact":
        params["gamma"] = 0.0  # the profile is exact only without dispersion
        state = numerics.case1_steady_state(grid, params, c1=args.c1)
    else:
        try:
            state = numerics.random_trig_state(grid, args.seed)
        except ValueError as ve:
            raise UsageError(str(ve)) from None
    steps = int(round(args.T / args.dt))
    if steps < 1:
        raise UsageError("horizon shorter than one step")
    system = problem.system
    densities = problem.quantity_densities()
    try:
        for density in densities.values():
            numerics.conserved_quantity(density, state, system, params)
    except (ExprError, ValueError) as exc:
        raise UsageError(f"cannot sample the conserved densities: {exc}") from None
    deps = tuple(d.name for d in problem.ctx.dependents)
    if deps != ("u", "v"):
        raise UsageError(
            "simulate expects the dependents u, v (every --init builds u + i v), "
            f"got {', '.join(deps)}"
        )
    try:
        final, series = numerics.run(
            state, system, params, args.dt, steps, densities, sample_every=args.sample_every
        )
    except numerics.BlowupError as be:
        rep.add("simulate.blowup", args.init, "fail", str(be), "bounded trajectory")
        return rep
    except EvalDomainError as exc:
        rep.add(
            "simulate.domain", args.init, "fail", str(exc), "rules defined along the trajectory"
        )
        return rep
    except UnboundGeneratorError as exc:  # the densities were sampled above
        raise UsageError(f"cannot evaluate the [evolution] rules: {exc}") from None
    for label in series.labels:
        d = series.drift(label)
        rep.add(
            f"simulate.drift.{label}",
            label,
            "pass" if d < args.drift_tol else "fail",
            f"{d:.6e}",
            "max|Q(t)-Q(0)|/max(1,|Q(0)|) < drift tolerance",
        )
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8", newline="") as fh:
            fh.write(series.to_csv())
    return rep


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.problem, printed=args.printed_variants)
    except (ProblemFormatError, OSError) as exc:
        print(f"nlseverify: error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "verify":
            rep = verify_report(problem)
        elif args.command == "associate":
            rep = associate_report(problem)
        elif args.command == "reduce":
            rep = reduce_report(problem)
        elif args.command == "classify":
            rep = classify_report(problem, args.seed, args.tol, args.case)
        else:
            rep = simulate_report(problem, args)
    except (UsageError, NormalizationError) as exc:
        print(f"nlseverify: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(rep.tsv())
    print(rep.summary(), file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
    return 2 if rep.any_failed() else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
