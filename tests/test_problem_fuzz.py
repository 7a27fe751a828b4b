"""Mutation fuzz of problem files: whatever the loader makes of a damaged
file, every command ends with exit 0, 1 or 2, never a traceback, and a
file refused for a renumbered key is refused at a line.  The bundled file
is fuzzed, and so are two edits of it: third-order dispersion,
whose prolongation goes past the bundled order, and the dependents spelled
a, b."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlseverify.cli import main
from nlseverify.problem import bundled_problem_text
from test_reduce_variants import renamed_dependents, variant

TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]")
INDEXED = re.compile(r"(pair|t|x)(\d+)_")  # the key of an indexed entry, up to its index
DECLARED = ("t", "x", "u", "v", "beta", "gamma", "delta", "c", "eps", "c1")
LIKE = {  # a token is replaced by one of its own class, so most mutants still parse
    "name": (*DECLARED, "u_x", "v_xx", "u_t", "w"),
    "number": ("0", "1", "2", "3"),
    "operator": ("+", "-", "*", "/"),
}
COMMANDS = (["verify"], ["associate"], ["reduce"], ["classify"], ["simulate", "--T", "0.01"])
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


@st.composite
def mutant(draw, text: str, names: tuple[str, ...] = LIKE["name"]) -> tuple[str, str]:
    """The kind of mutation and ``text`` with it: one line dropped,
    duplicated or swapped with the next one, one token of an entry's value
    replaced by a token like it (a name from ``names``) or wrapped in 1 to
    12 nested squares, one declared name renamed wherever it is a word,
    ``+ J - J`` appended to an entry for a jet ``J`` of order 1 to 4, a tab
    put inside a key or a ``[reduced]`` note, or the index of one
    ``pairN``, ``tN`` or ``xN`` key shifted by one or written with a
    leading zero."""
    lines = text.splitlines()
    content = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    kinds = ("drop", "duplicate", "swap", "token", "rename", "square", "cancel", "tab", "renumber")
    kind = draw(st.sampled_from(kinds))
    if kind in ("cancel", "tab"):  # an entry: a line with a value
        content = [i for i in content if "=" in lines[i].split("#", 1)[0]]
    elif kind == "renumber":
        content = [i for i in content if INDEXED.match(lines[i])]
    at = draw(st.sampled_from(content))
    if kind == "drop":
        lines = lines[:at] + lines[at + 1 :]
    elif kind == "duplicate":
        lines = lines[: at + 1] + lines[at:]
    elif kind == "swap":
        lines = lines[:at] + lines[at + 1 : at + 2] + lines[at : at + 1] + lines[at + 2 :]
    elif kind in ("token", "square"):
        line = lines[at]
        spans = [m.span() for m in TOKEN.finditer(line, line.find("=") + 1)] or [(0, len(line))]
        start, end = draw(st.sampled_from(spans))
        old = line[start:end]
        if kind == "square":
            levels = draw(st.integers(1, 12))
            new = "(" * levels + old + ")^2" * levels
        else:
            like = "name" if old[0].isalpha() else "number" if old.isdigit() else "operator"
            new = draw(st.sampled_from(names if like == "name" else LIKE[like]))
        lines = lines[:at] + [line[:start] + new + line[end:]] + lines[at + 1 :]
    elif kind == "cancel":
        dep = draw(st.sampled_from(sorted({n.split("_")[0] for n in names if "_" in n})))
        jet = f"{dep}_{''.join(sorted(draw(st.text('tx', min_size=1, max_size=4))))}"
        lines[at] = f"{lines[at].split('#', 1)[0].rstrip()} + {jet} - {jet}"
    elif kind == "tab":  # strictly inside, where the loader's strip leaves it
        line = lines[at].split("#", 1)[0].rstrip()
        eq = line.index("=")
        header = next(h.strip() for h in reversed(lines[:at]) if h.strip().startswith("["))
        lo, hi = (eq + 2, len(line) - 1) if header == "[reduced]" else (1, eq - 2)
        cut = draw(st.integers(lo, max(lo, hi)))
        lines[at] = line[:cut] + "\t" + line[cut:]
    elif kind == "renumber":
        m = INDEXED.match(lines[at])
        index = draw(st.sampled_from((int(m[2]) + 1, int(m[2]) - 1, f"0{m[2]}")))
        lines[at] = f"{m[1]}{index}{lines[at][m.end(2):]}"
    else:
        old, new = draw(st.sampled_from(DECLARED)), draw(st.sampled_from(("w", "k", "y", "lam")))
        lines = [re.sub(rf"\b{old}\b", new, line) for line in lines]
    return kind, "\n".join(lines) + "\n"


def fuzz(target, mutants, examples: int) -> None:
    """Run a random command, with or without the printed variants, on
    ``examples`` drawn mutants; at least a quarter of them must get past
    the loader, and a renumbered key is refused at a line."""
    reached = []

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def run(data):
        kind, text = data.draw(mutants)
        argv = ["--printed-variants"] * data.draw(st.booleans()) + data.draw(st.sampled_from(COMMANDS))
        target.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--problem", str(target), *argv])
        assert code in (0, 1, 2), (argv, text)
        # Every loader error names the file first; any other outcome ran the command.
        refused = err.getvalue().startswith(f"nlseverify: error: {target}")
        if refused and kind == "renumber":
            assert re.match(rf"nlseverify: error: {re.escape(str(target))}:\d+: ", err.getvalue()), text
        reached.append(not refused)

    run()
    assert sum(reached) >= len(reached) / 4, f"{sum(reached)} of {len(reached)} mutants loaded"


def test_mutated_problem_files_end_in_an_exit_code(tmp_path):
    fuzz(tmp_path / "mutant.prob", mutant(bundled_problem_text()), 100)


@pytest.mark.parametrize(
    "text, names",
    [
        (variant("third-order"), (*LIKE["name"], "alpha", "u_xxx")),
        (renamed_dependents(), ("t", "x", "a", "b", "beta", "gamma", "delta", "a_x", "b_xx", "a_t", "w")),
    ],
    ids=["third-order", "renamed-dependents"],
)
def test_mutated_edited_files_end_in_an_exit_code(tmp_path, text, names):
    fuzz(tmp_path / "mutant.prob", mutant(text, names), 50)


def run_quietly(*argv) -> tuple[int, str]:
    """Exit code and stdout of one command, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def test_a_jet_cancelled_in_an_equation_keeps_every_verdict(tmp_path):
    """``+ J - J`` appended to g1 or g2, for a jet ``J`` of order 1 to 4: the
    mutation fuzz above rarely draws it with ``classify``, whose compiled
    equations bind every jet the equation trees name.  The verdict columns
    stay the bundled ones (the residual digits move with the tree) and
    ``verify`` prints the golden records."""
    text = bundled_problem_text()
    target = tmp_path / "cancel.prob"

    def verdicts(out: str) -> list:
        return [line.split("\t")[:3] for line in out.splitlines()]

    bundled = verdicts(run_quietly("classify")[1])
    golden = (GOLDEN / "verify.tsv").read_text(encoding="utf-8")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        key=st.sampled_from(("g1", "g2")),
        dep=st.sampled_from(("u", "v")),
        word=st.text("tx", min_size=1, max_size=4),
    )
    def run(key, dep, word):
        jet = f"{dep}_{''.join(sorted(word))}"
        line = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        target.write_text(text.replace(line, f"{line} + {jet} - {jet}", 1))
        code, out = run_quietly("--problem", str(target), "classify")
        assert (code, verdicts(out)) == (0, bundled), jet
        assert run_quietly("--problem", str(target), "verify") == (0, golden), jet

    run()
