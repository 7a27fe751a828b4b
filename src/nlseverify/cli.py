"""Command line interface.

Machine-readable check records go to stdout (tab-separated, fixed order),
a short human summary goes to stderr.  Exit status: 0 when no record
fails, 2 when at least one fails, 1 for usage or input-format errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import numerics
from .exprs import EvalDomainError, ExprError, UnboundGeneratorError, render, var
from .jets import (
    association_residual,
    divergence_match,
    multiplier_condition,
    prolong,
    symmetry_invariance,
)
from .normal import PolyNF, accumulate, as_form, integral, normalize
from .problem import Problem, ProblemFormatError, load_problem
from .reduction import build_canonical_transform, classify, reduced_ode
from .report import Report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check(
    rep: Report, check_id: str, subject: str, residual, anchor: str, verdicts=("pass", "fail")
) -> None:
    """One exact record: the first of ``verdicts`` when every residual is zero.
    A dict's nonzero forms print as ``label: expr``, a lone ``PolyNF`` as
    ``expr`` (it is one part with no label), joined by ``; ``, else ``0``."""
    parts = {"": residual} if isinstance(residual, PolyNF) else residual
    bad = {k: render(v.to_expr()) for k, v in parts.items() if not v.is_zero}
    text = "; ".join(f"{k}: {expr}" if k else expr for k, expr in bad.items()) or "0"
    rep.add(check_id, subject, verdicts[1] if bad else verdicts[0], text, anchor)


def _angular(problem: Problem, command: str) -> str:
    """The angular combination in the file's names, e.g. ``u*g1 + v*g2``:
    each dependent times its own equation, so the counts must agree."""
    deps, equations = problem.ctx.dependents, problem.system.equations
    if len(deps) != len(equations):
        raise UsageError(
            f"{command}: the angular combination needs one equation per dependent, "
            f"got {len(equations)} equations for {len(deps)} dependents"
        )
    return " + ".join(f"{dep.name}*{label}" for dep, (label, _) in zip(deps, equations))


@functools.cache  # built on the first main call, not at import; parse_args keeps no state
def build_parser() -> _Parser:
    p = _Parser(prog="nlseverify", description=__doc__)
    p.add_argument("--problem", metavar="PATH", help="problem file (default: bundled)")
    p.add_argument("--seed", type=int, default=7, help="seed for parameter draws")
    p.add_argument(
        "--printed-variants",
        action="store_true",
        help="swap in the [printed] entries of the problem file",
    )
    p.add_argument("--json-out", metavar="PATH", help="also write records as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    for name, report, text in (  # each command and the function that fills its report
        ("verify", verify_report, "multiplier, divergence, and symmetry identities"),
        ("associate", associate_report, "symmetry/conserved-vector association matrix"),
        ("reduce", reduce_report, "canonical variables and the reduced profile equation"),
        ("classify", classify_report, "adjudicate closed-form solution candidates"),
        ("simulate", simulate_report, "integrate and audit conserved quantities"),
    ):
        sub.add_parser(name, help=text).set_defaults(report=report)
    sub.choices["classify"].add_argument("--case", help="restrict to one candidate case label prefix")
    sim = sub.choices["simulate"]
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
    sim.add_argument("--sample-every", type=int, default=10, metavar="STEPS")
    sim.add_argument("--drift-tol", type=float, default=1e-6)
    sim.add_argument("--csv-out", metavar="PATH", help="write sampled quantities as CSV")
    return p


def verify_report(rep: Report, problem: Problem, args: argparse.Namespace) -> None:
    system = problem.system
    for pair in problem.multipliers:
        _check(
            rep,
            f"verify.multiplier.{pair.label}",
            pair.label,
            {f"E_{k}": v for k, v in multiplier_condition(system, pair).items()},
            "E_w[q1*g1 + q2*g2] = 0 for each dependent w",
        )
    for pair, vec in zip(problem.multipliers, problem.conserved):
        _check(
            rep,
            f"verify.divergence.{pair.label}.{vec.label}",
            f"{pair.label},{vec.label}",
            divergence_match(system, pair, vec),
            "D_t[T^t] + D_x[T^x] - (q1*g1 + q2*g2) = 0",
        )
    for fieldv in problem.symmetries:
        _check(
            rep,
            f"verify.symmetry.{fieldv.label}",
            fieldv.label,
            symmetry_invariance(system, fieldv),
            "pr(X)[g] = 0 modulo the evolution form",
        )


def associate_report(rep: Report, problem: Problem, args: argparse.Namespace) -> None:
    vectors = problem.conserved
    for fieldv in problem.symmetries if vectors else ():
        prol = prolong(fieldv, problem.ctx)
        for vec in vectors:
            _check(
                rep,
                f"associate.{fieldv.label}.{vec.label}",
                f"{fieldv.label},{vec.label}",
                association_residual(problem.system, prol, vec),
                "pr(X)[T] + T*div(xi) - T.(D xi) = 0 modulo the evolution form",
                ("associated", "not-associated"),
            )


def reduce_report(rep: Report, problem: Problem, args: argparse.Namespace) -> None:
    if len(problem.ctx.dependents) != 2:
        raise UsageError("reduce needs exactly two dependents, the real and imaginary part")
    angular = _angular(problem, "reduce")
    system = problem.system
    try:
        tr = build_canonical_transform(system)
    except ValueError as exc:  # a file name taken by the reduced variables
        raise UsageError(f"reduce: {exc}; r, s, w, p name the reduced variables") from None
    time_space = f"{system.time.name},{system.space.name}"
    _check(
        rep,
        "reduce.jacobian",
        f"({time_space})->(s,r)",
        normalize(accumulate(tr.jac_det, {frozenset(): 1}, -1)),
        f"det[D({time_space})/D(s,r)] = 1",
    )
    by_label = {vec.label: vec for vec in problem.conserved}
    if "t2" in by_label:
        d, *forms = integral(*by_label["t2"].forms)
        pushed = tr.pushforward(forms, as_form(var(tr.red_ctx["w"])))
        for part, e in zip(("density", "flux"), pushed):
            rep.add(
                f"reduce.{part}.t2",
                "t2",
                "info",
                render(normalize(e, d).to_expr()),
                f"{part} in canonical variables (invariant profile)",
            )
    try:
        ode = reduced_ode(tr)
    except ValueError as exc:  # the system does not reduce
        ode, verdict, residual = None, "fail", str(exc)
    else:
        verdict, residual = "info", render(ode.residual.to_expr())
    rep.add(
        "reduce.ode",
        angular,
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
        _check(
            rep,
            "reduce.factorization",
            ",".join(sorted(fres)),
            fres,
            "substituted system is an invertible rotation of the two factors",
        )
    for key, note in sorted(problem.reduced_notes.items()):
        rep.add(f"reduce.printed.{key}", key, "info", note, "as printed; not parsed")


def classify_report(rep: Report, problem: Problem, args: argparse.Namespace) -> None:
    cands = problem.candidates
    if args.case is not None:
        cands = tuple(c for c in cands if c.case == args.case)
        if not cands:
            raise UsageError(f"no candidates in case {args.case!r}")
    if not cands:
        return
    angular = _angular(problem, "classify")
    for cr in classify(problem.system, cands, seed=args.seed):
        causes = [d.cause for d in cr.draws if d.cause]
        eq_max = max(d.eq_residual for d in cr.draws)
        ang_max = max(d.reduced_residual for d in cr.draws)
        rep.add(
            f"classify.{cr.candidate.label}",
            cr.candidate.label,
            "suspect" if cr.candidate.suspect and cr.verdict != "fail" else cr.verdict,
            causes[0] if causes else f"eq={eq_max:.3e},angular={ang_max:.3e}",
            f"max|g_a| and max|{angular}| over seeded draws and sample points",
        )


CASE1_EXACT = "case1-linear-phase"  # the candidate that --init case1-exact starts from


def simulate_report(rep: Report, problem: Problem, args: argparse.Namespace) -> None:
    deps = [d.name for d in problem.ctx.dependents]
    if len(deps) != 2:
        raise UsageError(
            "simulate needs exactly two dependents, the real and imaginary part "
            f"that every --init builds, got {', '.join(deps)}"
        )
    try:
        grid = numerics.Grid(args.N, args.L)
    except ValueError as ve:
        raise UsageError(str(ve)) from None
    if not (0 < args.dt < math.inf and 0 < args.T < math.inf) or args.sample_every < 1:
        raise UsageError("dt, T must be positive and finite and sample-every at least 1")
    if not (math.isfinite(args.a) and math.isfinite(args.k)):
        raise UsageError(f"a, k must be finite, got a={args.a}, k={args.k}")
    if not args.drift_tol > 0:
        raise UsageError(f"drift-tol must be positive, got {args.drift_tol}")
    params = dict(problem.param_values)
    # An overflow or nan is judged by the blowup check and the drift records,
    # so numpy's warnings would only repeat it on stderr.
    with numerics.np.errstate(all="ignore"):
        if args.init == "plane-wave":
            state = numerics.plane_wave_start(grid, args.a, args.k)
        elif args.init == "case1-exact":
            cand = next((c for c in problem.candidates if c.label == CASE1_EXACT), None)
            if cand is None:
                raise UsageError(f"--init case1-exact needs the [candidates] entry {CASE1_EXACT}")
            try:  # its constraints hold the parameters the run integrates with
                state, params = numerics.candidate_start(cand, problem.system, params, grid)
            except KeyError as exc:
                raise UsageError(f"--init case1-exact needs a [params] value for {exc}") from None
        else:
            try:
                state = numerics.random_trig_state(grid, args.seed)
            except ValueError as ve:
                raise UsageError(str(ve)) from None
        if args.T / args.dt == math.inf:
            raise UsageError("T/dt overflows a float")
        steps = round(args.T / args.dt)
        if steps < 1:
            raise UsageError("horizon shorter than one step")
        system = problem.system
        try:
            audit = numerics.Audit(problem.quantity_densities(), system, params, state)
        except (ExprError, ValueError) as exc:
            raise UsageError(f"cannot sample the conserved densities: {exc}") from None
        try:
            numerics.run(state, system, params, args.dt, steps, audit, args.sample_every)
        except numerics.BlowupError as be:
            rep.add("simulate.blowup", args.init, "fail", str(be), "bounded trajectory")
            return
        except EvalDomainError as exc:
            rep.add(
                "simulate.domain", args.init, "fail", str(exc), "rules defined along the trajectory"
            )
            return
        except UnboundGeneratorError as exc:  # the densities were sampled above
            raise UsageError(f"cannot evaluate the [evolution] rules: {exc}") from None
        series = audit.series
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
        _write(args.csv_out, series.to_csv(), "--csv-out")


def _write(path: str, text: str, option: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{option}: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.problem, printed=args.printed_variants)
        rep = Report(args.command)
        args.report(rep, problem, args)
        if args.json_out:
            _write(args.json_out, rep.to_json(), "--json-out")
    except (ProblemFormatError, OSError, UsageError, ExprError) as exc:
        print(f"nlseverify: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(rep.tsv())
    print(rep.summary(), file=sys.stderr)
    return 2 if rep.any_failed() else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
