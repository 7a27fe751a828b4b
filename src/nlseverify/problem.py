"""Problem-file loader.

A problem file is a line-oriented text format with bracketed sections:

    [params] [independents] [dependents]   bare names, one per line
    [equations]     label = expression     (left sides of "= 0")
    [evolution]     <dep>_t = expression   (spatial right-hand sides)
    [multipliers]   pairN_qM = expression
    [conserved]     tN_density / tN_flux = expression
    [symmetries]    xN_xi_<indep> / xN_eta_<dep> = expression
    [candidates]    label : constraints : u = expr : v = expr
    [printed]       key = expression       (variant entries, see below)
    [reduced]       key = raw text         (display strings, never parsed)

``#`` starts a comment.  The ``[printed]`` section carries alternative
spellings of specific entries exactly as they circulate in print; loading
with ``printed=True`` swaps them in so their defects can be demonstrated
rather than silently corrected.  Candidate constraints are comma-separated
``name = expression`` items; the bare word ``suspect`` marks a candidate
that is carried through evaluation but excluded from adjudication.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from .exprs import Context, Expr, ExprError
from .jets import ConservedVector, MultiplierPair, PDESystem, VectorField
from .parse import ParseError, parse
from .reduction import SolutionCandidate

_SECTIONS = (
    "params",
    "independents",
    "dependents",
    "equations",
    "evolution",
    "multipliers",
    "conserved",
    "symmetries",
    "candidates",
    "printed",
    "reduced",
)

_REQUIRED = ("independents", "dependents", "equations", "evolution")


class ProblemFormatError(Exception):
    def __init__(self, message: str, path: str, lineno: int | None = None) -> None:
        where = f"{path}:{lineno}" if lineno else path
        super().__init__(f"{where}: {message}")
        self.path = path
        self.lineno = lineno


@dataclass(frozen=True)
class Problem:
    """Everything a verification run needs, loaded from one file."""

    path: str
    ctx: Context
    system: PDESystem
    multipliers: tuple[MultiplierPair, ...]
    conserved: tuple[ConservedVector, ...]
    symmetries: tuple[VectorField, ...]
    candidates: tuple[SolutionCandidate, ...]
    printed_keys: tuple[str, ...]
    reduced_notes: Mapping[str, str]
    printed: bool = False

    def quantity_densities(self) -> dict[str, Expr]:
        return {f"Q{i}": vec.density for i, vec in enumerate(self.conserved, 1)}


def bundled_problem_text() -> str:
    return (
        resources.files("nlseverify").joinpath("data/cubic_nlse.prob").read_text()
    )


def _split_sections(text: str, path: str) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemFormatError("malformed section header", path, lineno)
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ProblemFormatError(f"unknown section [{current}]", path, lineno)
            if current in sections:
                raise ProblemFormatError(f"duplicate section [{current}]", path, lineno)
            sections[current] = []
        else:
            if current is None:
                raise ProblemFormatError("content before any section", path, lineno)
            sections[current].append((lineno, line))
    for name in _REQUIRED:
        if name not in sections:
            raise ProblemFormatError(f"missing required section [{name}]", path)
    return sections


def _keyed(lines: list[tuple[int, str]], path: str) -> list[tuple[int, str, str]]:
    out = []
    for lineno, line in lines:
        if "=" not in line:
            raise ProblemFormatError("expected 'key = value'", path, lineno)
        key, value = line.split("=", 1)
        out.append((lineno, key.strip(), value.strip()))
    return out


def _parse_expr(text: str, ctx: Context, path: str, lineno: int) -> Expr:
    try:
        return parse(text, ctx)
    except ParseError as pe:
        raise ProblemFormatError(str(pe), path, lineno) from None


_PAIR_RE = re.compile(r"pair(\d+)_q(\d+)$")
_VEC_RE = re.compile(r"t(\d+)_(density|flux)$")
_SYM_RE = re.compile(r"x(\d+)_(xi|eta)_([a-z][a-z0-9]*)$")
_LABEL_RE = re.compile(r"[a-z][a-z0-9-]*$")


def _contiguous(indices, what: str, path: str) -> int:
    n = len(indices)
    if sorted(indices) != list(range(1, n + 1)):
        raise ProblemFormatError(f"{what} indices must be 1..{n}", path)
    return n


def load_problem_text(text: str, path: str, printed: bool = False) -> Problem:
    sections = _split_sections(text, path)

    def names(section: str) -> list[str]:
        out = []
        for lineno, line in sections.get(section, []):
            if not line.isidentifier():
                raise ProblemFormatError(
                    f"expected a bare name, got {line!r}", path, lineno
                )
            out.append(line)
        return out

    try:
        ctx = Context(names("independents"), names("dependents"), names("params"))
    except ValueError as ve:
        raise ProblemFormatError(str(ve), path) from None
    time_name = "t"
    if ctx.lookup(time_name) is None:
        raise ProblemFormatError("no independent variable named t", path)

    printed_map: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _keyed(sections.get("printed", []), path):
        printed_map[key] = (lineno, value)
    overridable: set[str] = set()

    def entries(section: str):
        """The section's (lineno, key, value) entries, with the [printed]
        spelling swapped in when loading printed; records each key seen."""
        for lineno, key, value in _keyed(sections.get(section, []), path):
            overridable.add(key)
            if printed and key in printed_map:
                lineno, value = printed_map[key]
            yield lineno, key, value

    equations = []
    for lineno, key, value in entries("equations"):
        equations.append((key, _parse_expr(value, ctx, path, lineno)))

    evolution: dict[str, Expr] = {}
    for lineno, key, value in entries("evolution"):
        if not key.endswith(f"_{time_name}") or ctx.lookup(key[:-2]) is None:
            raise ProblemFormatError(
                f"evolution key {key!r} must be <dependent>_{time_name}", path, lineno
            )
        evolution[key[:-2]] = _parse_expr(value, ctx, path, lineno)
    try:
        system = PDESystem.build(ctx, equations, evolution, time=time_name)
    except (ValueError, ExprError) as exc:
        raise ProblemFormatError(str(exc), path) from None

    pair_parts: dict[int, dict[int, Expr]] = {}
    for lineno, key, value in entries("multipliers"):
        m = _PAIR_RE.match(key)
        if not m:
            raise ProblemFormatError(f"bad multiplier key {key!r}", path, lineno)
        n, q = int(m.group(1)), int(m.group(2))
        pair_parts.setdefault(n, {})[q] = _parse_expr(value, ctx, path, lineno)
    multipliers = []
    for n in sorted(pair_parts):
        qs = pair_parts[n]
        _contiguous(list(qs), f"pair{n} multiplier", path)
        if len(qs) != len(equations):
            raise ProblemFormatError(
                f"pair{n} has {len(qs)} multipliers for {len(equations)} equations",
                path,
            )
        multipliers.append(
            MultiplierPair(f"pair{n}", tuple(qs[i] for i in sorted(qs)))
        )
    _contiguous(list(pair_parts), "multiplier pair", path)

    vec_parts: dict[int, dict[str, Expr]] = {}
    for lineno, key, value in entries("conserved"):
        m = _VEC_RE.match(key)
        if not m:
            raise ProblemFormatError(f"bad conserved key {key!r}", path, lineno)
        vec_parts.setdefault(int(m.group(1)), {})[m.group(2)] = _parse_expr(
            value, ctx, path, lineno
        )
    conserved = []
    for n in sorted(vec_parts):
        parts = vec_parts[n]
        if set(parts) != {"density", "flux"}:
            raise ProblemFormatError(f"t{n} needs both density and flux", path)
        try:
            conserved.append(ConservedVector(f"t{n}", parts["density"], parts["flux"]))
        except ValueError as ve:
            raise ProblemFormatError(str(ve), path) from None
    _contiguous(list(vec_parts), "conserved vector", path)

    sym_parts: dict[int, dict[str, dict[str, Expr]]] = {}
    indep_names = {v.name for v in ctx.independents}
    dep_names = {v.name for v in ctx.dependents}
    for lineno, key, value in _keyed(sections.get("symmetries", []), path):
        m = _SYM_RE.match(key)
        if not m:
            raise ProblemFormatError(f"bad symmetry key {key!r}", path, lineno)
        n, part, target = int(m.group(1)), m.group(2), m.group(3)
        expected = indep_names if part == "xi" else dep_names
        if target not in expected:
            raise ProblemFormatError(
                f"symmetry key {key!r} targets unknown variable {target!r}",
                path,
                lineno,
            )
        sym_parts.setdefault(n, {"xi": {}, "eta": {}})[part][target] = _parse_expr(
            value, ctx, path, lineno
        )
    symmetries = []
    for n in sorted(sym_parts):
        fieldv = VectorField(f"x{n}", sym_parts[n]["xi"], sym_parts[n]["eta"])
        try:
            fieldv.validate(ctx)
        except ValueError as ve:
            raise ProblemFormatError(str(ve), path) from None
        symmetries.append(fieldv)
    _contiguous(list(sym_parts), "symmetry", path)

    candidates = []
    candidate_lines = sections.get("candidates", [])
    if candidate_lines and dep_names != {"u", "v"}:
        raise ProblemFormatError(
            "solution candidates require the dependents to be exactly u and v",
            path,
            candidate_lines[0][0],
        )
    for lineno, line in candidate_lines:
        parts = [p.strip() for p in line.split(":")]
        if len(parts) != 4:
            raise ProblemFormatError(
                "candidate needs 'label : constraints : u = expr : v = expr'",
                path,
                lineno,
            )
        label = parts[0]
        if not _LABEL_RE.match(label):
            raise ProblemFormatError(f"bad candidate label {label!r}", path, lineno)
        suspect = False
        constraints = []
        if parts[1]:
            for item in parts[1].split(","):
                item = item.strip()
                if item == "suspect":
                    suspect = True
                    continue
                if "=" not in item:
                    raise ProblemFormatError(
                        f"bad constraint {item!r}", path, lineno
                    )
                cname, cval = (s.strip() for s in item.split("=", 1))
                pvar = ctx.lookup(cname)
                if pvar is None or pvar.kind != "parameter":
                    raise ProblemFormatError(
                        f"constraint target {cname!r} is not a parameter",
                        path,
                        lineno,
                    )
                constraints.append((cname, _parse_expr(cval, ctx, path, lineno)))
        exprs = {}
        for piece in parts[2:]:
            if "=" not in piece:
                raise ProblemFormatError(f"bad candidate field {piece!r}", path, lineno)
            dname, dval = (s.strip() for s in piece.split("=", 1))
            if dname not in dep_names:
                raise ProblemFormatError(
                    f"candidate field {dname!r} is not a dependent variable",
                    path,
                    lineno,
                )
            exprs[dname] = _parse_expr(dval, ctx, path, lineno)
        if set(exprs) != dep_names:
            raise ProblemFormatError(
                "candidate must give every dependent variable", path, lineno
            )
        cand = SolutionCandidate(label, tuple(constraints), exprs["u"], exprs["v"], suspect)
        try:
            cand.check_explicit()
        except ValueError as ve:
            raise ProblemFormatError(str(ve), path, lineno) from None
        candidates.append(cand)

    reduced_notes = {}
    for lineno, key, value in _keyed(sections.get("reduced", []), path):
        reduced_notes[key] = value

    for key, (lineno, _) in printed_map.items():
        if key not in overridable:
            raise ProblemFormatError(
                f"printed entry {key!r} overrides nothing", path, lineno
            )

    return Problem(
        path=path,
        ctx=ctx,
        system=system,
        multipliers=tuple(multipliers),
        conserved=tuple(conserved),
        symmetries=tuple(symmetries),
        candidates=tuple(candidates),
        printed_keys=tuple(sorted(printed_map)),
        reduced_notes=reduced_notes,
        printed=printed,
    )


def load_problem(path: str | None = None, printed: bool = False) -> Problem:
    """Load a problem file; with no path, the bundled cubic system."""
    if path is None:
        return load_problem_text(bundled_problem_text(), "cubic_nlse.prob", printed)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFormatError(str(exc), path) from None
    return load_problem_text(text, path, printed)
