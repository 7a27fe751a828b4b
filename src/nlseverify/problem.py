"""Problem-file loader.

A problem file is a line-oriented text format with bracketed sections:

    [params]        name, or name = constant expression (its value)
    [independents] [dependents]   bare names, one per line
    [equations]     label = expression     (left sides of "= 0")
    [evolution]     <dep>_t = expression   (spatial right-hand sides)
    [multipliers]   pairN_qM = expression
    [conserved]     tN_density / tN_flux = expression
    [symmetries]    xN_xi_<indep> / xN_eta_<dep> = expression
    [candidates]    label : constraints : <dep> = expr, one per dependent
    [printed]       key = expression       (variant entries, see below)
    [reduced]       key = raw text         (display strings, never parsed, no tab)

``#`` starts a comment.  The ``[printed]`` section carries alternative
spellings of specific entries exactly as they circulate in print; loading
with ``printed=True`` swaps them in so their defects can be demonstrated
rather than silently corrected.  Candidate constraints are comma-separated
``parameter = expression`` items, the expression naming parameters only;
the bare word ``suspect`` marks a candidate that is carried through
evaluation but excluded from adjudication.

A parameter value is what ``simulate`` integrates with; the symbolic
commands keep every parameter symbolic and ``classify`` draws them.
"""

from __future__ import annotations

import math
import os
import re

from .exprs import (
    NAME,
    Context,
    DeclarationError,
    Expr,
    ExprError,
    Frozen,
    collect_refs,
    eval_numeric,
)
from .jets import ConservedVector, EntryError, MultiplierPair, PDESystem, VectorField
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

_PRINTABLE = ("equations", "evolution", "multipliers", "conserved")  # what [printed] may respell


class ProblemFormatError(Exception):
    def __init__(self, message: str, path: str, lineno: int | None = None) -> None:
        where = f"{path}:{lineno}" if lineno else path
        super().__init__(f"{where}: {message}")
        self.lineno = lineno


class Problem(Frozen):
    """Everything a verification run needs, loaded from one file."""

    _fields = (
        "path",
        "ctx",
        "system",
        "multipliers",
        "conserved",
        "symmetries",
        "candidates",
        "reduced_notes",
        "param_values",  # the [params] entries that carry one
    )

    def quantity_densities(self) -> dict[str, Expr]:
        return {f"Q{i}": vec.density for i, vec in enumerate(self.conserved, 1)}


def bundled_problem_text() -> str:
    """The bundled problem file, read from ``data/`` next to this module:
    ``importlib.resources`` would cost an interpreter that has not imported
    it yet about 15 ms."""
    path = os.path.join(os.path.dirname(__file__), "data", "cubic_nlse.prob")
    with open(path, encoding="utf-8") as f:
        return f.read()


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


def _keyed(lines: list[tuple[int, str]], path: str) -> dict[str, tuple[int, str]]:
    """A ``key = value`` section as key -> (lineno, value), in file order;
    a key may appear once, and holds no tab: keys reach the TSV columns."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ProblemFormatError("expected 'key = value'", path, lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if "\t" in key:
            raise ProblemFormatError(f"key {key!r} contains a tab", path, lineno)
        if key in out:
            raise ProblemFormatError(f"duplicate key {key!r}", path, lineno)
        out[key] = (lineno, value)
    return out


_PAIR_RE = re.compile(r"pair(\d+)_q(\d+)$")
_VEC_RE = re.compile(r"t(\d+)_(density|flux)$")
_SYM_RE = re.compile(rf"x(\d+)_((xi|eta)_({NAME.pattern}))$")
_LABEL_RE = re.compile(r"[a-z][a-z0-9-]*$")


def _contiguous(indices, what: str, path: str) -> None:
    n = len(indices)
    if sorted(indices) != list(range(1, n + 1)):
        raise ProblemFormatError(f"{what} indices must be 1..{n}", path)


def _indexed(entries, pattern: re.Pattern, what: str, build, parsed, path: str) -> list:
    """One ``build(n, {part: expression})`` per index ``n`` 1..N, in order.
    ``pattern`` captures the index, then the part (``pair2_q1``: 2, ``1``);
    ``what`` names the objects (``multiplier pair``), its first word the keys;
    ``parsed(text, lineno)`` gives an entry's tree."""
    groups: dict[int, dict[str, Expr]] = {}
    for key, (lineno, value) in entries:
        m = pattern.match(key)
        if not m:
            raise ProblemFormatError(f"bad {what.split()[0]} key {key!r}", path, lineno)
        parts = groups.setdefault(int(m[1]), {})
        if m[2] in parts:  # the index spelled with a leading zero
            raise ProblemFormatError(f"duplicate key {key!r}", path, lineno)
        parts[m[2]] = parsed(value, lineno)
    built = [build(n, groups[n]) for n in sorted(groups)]
    _contiguous(groups, what, path)
    return built


def load_problem_text(text: str, path: str, printed: bool = False) -> Problem:
    sections = _split_sections(text, path)
    value_text: dict[str, tuple[int, str]] = {}  # [params] name -> (lineno, value)
    declared_at: dict[str, int] = {}  # name -> line of its last declaration

    def names(section: str) -> list[str]:
        """The declared names; a [params] line may also give a value."""
        out = []
        for lineno, line in sections.get(section, []):
            name, eq, value = (s.strip() for s in line.partition("="))
            if not name.isidentifier() or (eq and (section != "params" or not value)):
                raise ProblemFormatError(
                    f"expected a bare name, got {line!r}", path, lineno
                )
            if eq:
                value_text[name] = (lineno, value)
            declared_at[name] = lineno
            out.append(name)
        return out

    try:
        ctx = Context(names("independents"), names("dependents"), names("params"))
    except DeclarationError as de:
        raise ProblemFormatError(str(de), path, declared_at[de.name]) from None
    trees: dict[str, Expr] = {}  # entry text -> its tree, for this load only

    def parsed(text: str, lineno: int) -> Expr:
        """Equal texts share one tree, an immutable value; only a successful
        parse is kept, so an error names the first line of its text."""
        if text not in trees:
            try:
                trees[text] = parse(text, ctx)
            except (ParseError, ExprError) as exc:  # ExprError: sqrt of a negative constant
                raise ProblemFormatError(str(exc), path, lineno) from None
        return trees[text]

    param_values: dict[str, float] = {}
    for name, (lineno, source) in value_text.items():
        expr = parsed(source, lineno)
        refs = sorted(g.name for g in collect_refs(expr))
        if refs:
            raise ProblemFormatError(
                f"value of {name} must be a constant, found {refs[0]}", path, lineno
            )
        try:
            value = eval_numeric(expr, {})
        except ExprError:  # past the float range, or a zero base under a negative power
            value = math.nan
        if not math.isfinite(value):
            raise ProblemFormatError(f"value of {name} is not a finite number", path, lineno)
        param_values[name] = value
    if len(ctx.independents) != 2:
        raise ProblemFormatError("[independents] must list exactly two variables, time first", path)
    time = ctx.independents[0].name

    # section -> key -> (lineno, value), filled as each section is read
    rows: dict[str, dict[str, tuple[int, str]]] = {}

    def entries(section: str):
        """The section's (key, (lineno, value)) entries, kept in ``rows``;
        in a printable section the [printed] spelling is swapped in when
        loading printed."""
        row = rows[section] = _keyed(sections.get(section, []), path)
        if printed and section in _PRINTABLE:
            row.update((k, v) for k, v in rows["printed"].items() if k in row)
        return row.items()

    entries("printed")  # first: its spellings are swapped into the sections read below
    equations = [(k, parsed(v, n)) for k, (n, v) in entries("equations")]

    evolution: dict[str, Expr] = {}
    for key, (lineno, value) in entries("evolution"):
        if not key.endswith(f"_{time}") or ctx.lookup(key[:-2]) not in ctx.dependents:
            raise ProblemFormatError(
                f"evolution key {key!r} must be <dependent>_{time}", path, lineno
            )
        evolution[key[:-2]] = parsed(value, lineno)
    try:
        system = PDESystem.build(ctx, equations, evolution)
    except EntryError as exc:
        lineno = rows[exc.section][exc.key][0]
        raise ProblemFormatError(str(exc), path, lineno) from None
    except (ValueError, ExprError) as exc:
        raise ProblemFormatError(str(exc), path) from None

    def pair(n: int, qs: dict[str, Expr]) -> MultiplierPair:
        _contiguous([int(q) for q in qs], f"pair{n} multiplier", path)
        if len(qs) != len(equations):
            msg = f"pair{n} has {len(qs)} multipliers for {len(equations)} equations"
            raise ProblemFormatError(msg, path)
        return MultiplierPair(f"pair{n}", tuple(qs[q] for q in sorted(qs, key=int)))

    def vector(n: int, parts: dict[str, Expr]) -> ConservedVector:
        if set(parts) != {"density", "flux"}:
            raise ProblemFormatError(f"t{n} needs both density and flux", path)
        return ConservedVector(f"t{n}", parts["density"], parts["flux"])

    indep_names = {v.name for v in ctx.independents}
    dep_names = {v.name for v in ctx.dependents}

    def targeted(entries):
        """[symmetries] entries, each naming a declared variable of its kind."""
        for key, (lineno, value) in entries:
            m = _SYM_RE.match(key)
            if m and m[4] not in (indep_names if m[3] == "xi" else dep_names):
                msg = f"symmetry key {key!r} targets unknown variable {m[4]!r}"
                raise ProblemFormatError(msg, path, lineno)
            yield key, (lineno, value)

    def symmetry(n: int, parts: dict[str, Expr]) -> VectorField:
        coefficients: dict[str, dict[str, Expr]] = {"xi": {}, "eta": {}}
        for part, e in parts.items():
            kind, _, target = part.partition("_")
            coefficients[kind][target] = e
        fieldv = VectorField(f"x{n}", coefficients["xi"], coefficients["eta"])
        try:
            fieldv.validate(ctx)
        except EntryError as exc:  # keyed x1_..., as the file may not write it (x01_...)
            lineno = next(line for key, (line, _) in rows["symmetries"].items()
                          if (m := _SYM_RE.match(key)) and f"x{int(m[1])}_{m[2]}" == exc.key)
            raise ProblemFormatError(str(exc), path, lineno) from None
        return fieldv

    multipliers = _indexed(entries("multipliers"), _PAIR_RE, "multiplier pair", pair, parsed, path)
    conserved = _indexed(entries("conserved"), _VEC_RE, "conserved vector", vector, parsed, path)
    symmetries = _indexed(targeted(entries("symmetries")), _SYM_RE, "symmetry", symmetry, parsed, path)

    candidates: list[SolutionCandidate] = []
    deps = [d.name for d in ctx.dependents]
    for lineno, line in sections.get("candidates", []):
        parts = [p.strip() for p in line.split(":")]
        if len(parts) != 2 + len(deps):
            layout = " : ".join(["label", "constraints"] + [f"{d} = expr" for d in deps])
            raise ProblemFormatError(f"candidate needs {layout!r}", path, lineno)
        label = parts[0]
        if not _LABEL_RE.match(label):
            raise ProblemFormatError(f"bad candidate label {label!r}", path, lineno)
        if any(c.label == label for c in candidates):
            raise ProblemFormatError(f"duplicate key {label!r}", path, lineno)
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
                if any(name == cname for name, _ in constraints):
                    raise ProblemFormatError(f"duplicate constraint target {cname!r}", path, lineno)
                cexpr = parsed(cval, lineno)
                named = sorted(g.name for g in collect_refs(cexpr) if g not in ctx.parameters)
                if named:  # classify binds only the parameters, in file order
                    msg = f"constraint value of {cname} may name only parameters, found {named[0]}"
                    raise ProblemFormatError(msg, path, lineno)
                constraints.append((cname, cexpr))
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
            exprs[dname] = parsed(dval, lineno)
        if set(exprs) != dep_names:
            raise ProblemFormatError(
                "candidate must give every dependent variable", path, lineno
            )
        fields = {d: exprs[d] for d in deps}
        cand = SolutionCandidate(label, tuple(constraints), fields, suspect)
        try:
            cand.check_explicit()
        except ValueError as ve:
            raise ProblemFormatError(str(ve), path, lineno) from None
        candidates.append(cand)

    reduced_notes = {}
    for key, (lineno, value) in entries("reduced"):
        if "\t" in value:  # printed as a TSV column
            raise ProblemFormatError(f"reduced note {key!r} contains a tab", path, lineno)
        reduced_notes[key] = value

    for key, (lineno, _) in rows["printed"].items():
        if not any(key in rows[section] for section in _PRINTABLE):
            raise ProblemFormatError(
                f"printed entry {key!r} overrides nothing", path, lineno
            )

    return Problem(
        path, ctx, system, tuple(multipliers), tuple(conserved), tuple(symmetries),
        tuple(candidates), reduced_notes, param_values,
    )


def load_problem(path: str | None = None, printed: bool = False) -> Problem:
    """Load a problem file; with no path, the bundled cubic system."""
    if path is None:
        return load_problem_text(bundled_problem_text(), "cubic_nlse.prob", printed)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(str(exc), path) from None
    return load_problem_text(text, path, printed)
