"""Mutation fuzz of the bundled problem file: whatever the loader makes of
a damaged file, every command ends with exit 0, 1 or 2, never a traceback."""

from __future__ import annotations

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from nlseverify.cli import main
from nlseverify.problem import bundled_problem_text

BUNDLED = bundled_problem_text().splitlines()
CONTENT = [i for i, line in enumerate(BUNDLED) if line.split("#", 1)[0].strip()]
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]")
DECLARED = ("t", "x", "u", "v", "beta", "gamma", "delta", "c", "eps", "c1")
LIKE = {  # a token is replaced by one of its own class, so most mutants still parse
    "name": (*DECLARED, "u_x", "v_xx", "u_t", "w"),
    "number": ("0", "1", "2", "3"),
    "operator": ("+", "-", "*", "/"),
}
COMMANDS = (["verify"], ["associate"], ["reduce"], ["classify"], ["simulate", "--T", "0.01"])


@st.composite
def mutant(draw) -> str:
    """The bundled file with one line dropped, duplicated or swapped with
    the next one, one token of an entry's value replaced, or one declared
    name renamed wherever it is a word."""
    lines = BUNDLED
    kind = draw(st.sampled_from(("drop", "duplicate", "swap", "token", "rename")))
    at = draw(st.sampled_from(CONTENT))
    if kind == "drop":
        lines = lines[:at] + lines[at + 1 :]
    elif kind == "duplicate":
        lines = lines[: at + 1] + lines[at:]
    elif kind == "swap":
        lines = lines[:at] + lines[at + 1 : at + 2] + lines[at : at + 1] + lines[at + 2 :]
    elif kind == "token":
        line = lines[at]
        spans = [m.span() for m in TOKEN.finditer(line, line.find("=") + 1)] or [(0, len(line))]
        start, end = draw(st.sampled_from(spans))
        old = line[start:end]
        like = "name" if old[0].isalpha() else "number" if old.isdigit() else "operator"
        new = draw(st.sampled_from(LIKE[like]))
        lines = lines[:at] + [line[:start] + new + line[end:]] + lines[at + 1 :]
    else:
        old, new = draw(st.sampled_from(DECLARED)), draw(st.sampled_from(("w", "k", "y", "lam")))
        lines = [re.sub(rf"\b{old}\b", new, line) for line in lines]
    return "\n".join(lines) + "\n"


def test_mutated_problem_files_end_in_an_exit_code(tmp_path):
    target = tmp_path / "mutant.prob"
    reached = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def run(data):
        text = data.draw(mutant())
        argv = data.draw(st.sampled_from(COMMANDS))
        target.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--problem", str(target), *argv])
        assert code in (0, 1, 2), (argv, text)
        # Every loader error names the file first; any other outcome ran the command.
        reached.append(not err.getvalue().startswith(f"nlseverify: error: {target}"))

    run()
    assert sum(reached) >= len(reached) / 4, f"{sum(reached)} of {len(reached)} mutants loaded"
