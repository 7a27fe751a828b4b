from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlseverify
from nlseverify.cli import main
from nlseverify.exprs import Context, render
from nlseverify.parse import MAX_DEPTH, parse
from nlseverify.problem import ProblemFormatError, bundled_problem_text, load_problem, load_problem_text

MINIMAL = """\
[params]
beta

[independents]
t
x

[dependents]
u

[equations]
g1 = u_t + beta*u_x

[evolution]
u_t = -beta*u_x
"""

TWO_DEP = """\
[params]
beta

[independents]
t
x

[dependents]
u
v

[equations]
g1 = u_t + beta*u_x
g2 = v_t + beta*v_x

[evolution]
u_t = -beta*u_x
v_t = -beta*v_x
"""


def test_bundled_problem_inventory(problem):
    assert [p.label for p in problem.multipliers] == ["pair1", "pair2", "pair3", "pair4"]
    assert [v.label for v in problem.conserved] == ["t1", "t2", "t3", "t4"]
    assert [s.label for s in problem.symmetries] == ["x1", "x2", "x3", "x4", "x5"]
    assert len(problem.candidates) == 12
    assert list(problem.quantity_densities()) == ["Q1", "Q2", "Q3", "Q4"]
    assert "k*gamma" in problem.reduced_notes["t2_flux_printed"]


def test_suspect_flags_follow_the_file(problem):
    flags = {c.label: c.suspect for c in problem.candidates}
    assert flags["case3-const-u"] and flags["case3-const-vneg"] and flags["case3-const-vpos"]
    assert not flags["case3-travel-phase"]
    assert not flags["case1-const-u"]
    assert {c.case for c in problem.candidates} == {"case1", "case2", "case3"}


def _rendered_entries(p):
    """Each parsed entry of a problem, rendered, under its file key."""
    out = {label: render(eq) for label, eq in p.system.equations}
    out.update({f"{d.name}_t": render(rule) for d, rule in p.system.evolution.items()})
    for pair in p.multipliers:
        out.update({f"{pair.label}_q{i}": render(q) for i, q in enumerate(pair.q, 1)})
    for vec in p.conserved:
        out[f"{vec.label}_density"] = render(vec.density)
        out[f"{vec.label}_flux"] = render(vec.flux)
    return out


def test_printed_variant_swaps_only_listed_keys(problem, printed_problem):
    plain, printed = _rendered_entries(problem), _rendered_entries(printed_problem)
    assert {k for k in plain if plain[k] != printed[k]} == {
        "g2", "v_t", "pair3_q1", "pair3_q2", "pair4_q1", "pair4_q2",
    }
    assert render(printed_problem.multipliers[2].q[0]) == "u_t"
    assert render(problem.multipliers[2].q[0]) == "v_t"
    # Untouched ingredients agree between the two loads.
    assert render(printed_problem.multipliers[0].q[0]) == render(problem.multipliers[0].q[0])
    assert [c.label for c in printed_problem.candidates] == [
        c.label for c in problem.candidates
    ]
    plain_g2 = dict(problem.system.equations)["g2"]
    printed_g2 = dict(printed_problem.system.equations)["g2"]
    assert render(plain_g2) != render(printed_g2)


def test_minimal_problem_loads():
    prob = load_problem_text(MINIMAL, "<test>")
    assert prob.multipliers == ()
    assert prob.conserved == ()
    assert prob.symmetries == ()
    assert prob.candidates == ()


def test_each_distinct_entry_text_is_parsed_once_per_load(monkeypatch):
    import nlseverify.problem as problem_module

    texts = []

    def counted(text, ctx):
        texts.append(text)
        return parse(text, ctx)

    monkeypatch.setattr(problem_module, "parse", counted)
    loaded = [load_problem(), load_problem()]
    # each load parses every distinct text once: no memo outlives a load
    assert len(texts) == 2 * len(set(texts)) and texts.count("sqrt(eps)") == 2
    case1, case2 = (p.candidates[0].fields["u"] for p in loaded)
    assert case1 is loaded[0].candidates[4].fields["u"] and case1 is not case2


def expect_error(text, fragment):
    with pytest.raises(ProblemFormatError) as info:
        load_problem_text(text, "<test>")
    assert fragment in str(info.value)
    return info.value


def test_missing_required_section():
    text = MINIMAL.replace("[evolution]\nu_t = -beta*u_x\n", "")
    expect_error(text, "missing required section [evolution]")


def test_unknown_section():
    expect_error(MINIMAL + "\n[frobnicate]\n", "unknown section")


def test_duplicate_section():
    expect_error(MINIMAL + "\n[params]\nc\n", "duplicate section")


def test_content_before_any_section():
    expect_error("beta\n" + MINIMAL, "content before any section")


def test_malformed_header_and_missing_equals():
    expect_error(MINIMAL + "\n[reduced\n", "malformed section header")
    expect_error(MINIMAL.replace("g1 = ", "g1 "), "expected 'key = value'")


def test_parse_errors_carry_line_numbers():
    bad = MINIMAL.replace("u_t + beta*u_x", "u_t + beta*)")
    err = expect_error(bad, "<test>:12")
    assert err.lineno == 12


def test_declaration_errors_are_wrapped():
    expect_error(MINIMAL.replace("[dependents]\nu\n", "[dependents]\nu\nu\n"), "duplicate")
    expect_error(MINIMAL.replace("x\n\n[dependents]", "x\ny\n\n[dependents]"), "exactly two")
    bad_name = MINIMAL.replace("[params]\nbeta\n", "[params]\nbeta gamma\n")
    expect_error(bad_name, "bare name")


def test_first_independent_is_time():
    text = MINIMAL.replace("t\nx\n", "y\nx\n").replace("u_t", "u_y")
    system = load_problem_text(text, "<test>").system
    assert (system.time.name, system.space.name) == ("y", "x")
    expect_error(MINIMAL.replace("u_t = ", "u_x = "), "must be <dependent>_t")
    expect_error(MINIMAL.replace("t\nx\n", "x\n"), "exactly two")


def test_inconsistent_evolution_is_wrapped():
    # each refusal names the line of the entry it refuses
    err = expect_error(
        MINIMAL.replace("u_t = -beta*u_x", "u_t = beta*u_x"),
        "does not solve equation g1",
    )
    assert str(err).startswith("<test>:12: ") and err.lineno == 12
    err = expect_error(
        MINIMAL.replace("u_t = -beta*u_x", "u_t = -beta*u_t"),
        "time",
    )
    assert str(err).startswith("<test>:15: ") and err.lineno == 15
    bundled = bundled_problem_text()
    err = expect_error(bundled.replace("u_t = -beta*u_x", "u_t = -2*beta*u_x"), "equation g1")
    assert str(err).startswith("<test>:24: ")
    err = expect_error(bundled.replace("u_t = -beta*u_x", "u_t = -beta*u_tx"), "u_tx")
    assert str(err) == "<test>:28: evolution rule for u contains the time derivative u_tx"
    expect_error(MINIMAL.replace("u_t = -beta*u_x", "q_t = u"), "evolution key")
    expect_error(TWO_DEP.replace("v_t = -beta*v_x\n", ""), "no evolution rule for v")


def test_multiplier_key_and_contiguity_errors():
    expect_error(MINIMAL + "\n[multipliers]\nq_one = u\n", "bad multiplier key")
    expect_error(
        MINIMAL + "\n[multipliers]\npair2_q1 = u\n",
        "indices must be 1..1",
    )
    expect_error(
        MINIMAL + "\n[multipliers]\npair1_q1 = u\npair1_q2 = u\n",
        "multipliers for 1 equations",
    )


def test_conserved_requires_both_components():
    expect_error(MINIMAL + "\n[conserved]\nt1_density = u\n", "both density and flux")
    expect_error(MINIMAL + "\n[conserved]\nt1_junk = u\n", "bad conserved key")
    # A third-order component loads: its divergence stays within the jet
    # cap, which Context.jet alone enforces.
    deep = MINIMAL + "\n[conserved]\nt1_density = u_xxx\nt1_flux = u\n"
    assert render(load_problem_text(deep, "<test>").conserved[0].density) == "u_xxx"


def test_symmetry_key_errors():
    expect_error(MINIMAL + "\n[symmetries]\nx1_xi_u = 1\n", "targets unknown variable")
    expect_error(MINIMAL + "\n[symmetries]\nx1_zeta_t = 1\n", "bad symmetry key")
    expect_error(MINIMAL + "\n[symmetries]\nx1_eta_u = u_xx\n", "exceeds first order")


def test_symmetry_jets_are_read_off_the_normal_form():
    """A jet that cancels in a coefficient's normal form is not there; one
    that stays is refused at the entry's line."""
    text = MINIMAL + "\n[symmetries]\nx1_xi_x = 1 + u_x - u_x\nx1_eta_u = -u + u_xx - u_xx\n"
    (field,) = load_problem_text(text, "<test>").symmetries
    assert (field.label, list(field.xi), list(field.eta)) == ("x1", ["x"], ["u"])
    for entry, message in [
        ("x1_xi_x = u_x", "x1: xi[x] involves jet variables"),
        ("x1_eta_u = u_xx", "x1: eta[u] exceeds first order"),
        ("x1_eta_u = u + u_xx - u_x", "x1: eta[u] exceeds first order"),
        ("x01_eta_u = u_xx", "x1: eta[u] exceeds first order"),  # placed though keyed x1
        ("x01_xi_x = sqrt(u_x)", "x1: xi[x] involves jet variables"),
    ]:
        err = expect_error(MINIMAL + f"\n[symmetries]\nx1_xi_t = 1\n{entry}\n", message)
        assert str(err) == f"<test>:19: {message}" and err.lineno == 19


def test_candidate_line_errors():
    expect_error(TWO_DEP + "\n[candidates]\nfoo : : u = 1\n", "candidate needs")
    expect_error(
        TWO_DEP + "\n[candidates]\nBad : : u = 1 : v = 2\n", "bad candidate label"
    )
    expect_error(
        TWO_DEP + "\n[candidates]\nfoo : u = 1 : u = 1 : v = 2\n",
        "not a parameter",
    )
    expect_error(
        TWO_DEP + "\n[candidates]\nfoo : : q = 1 : v = 2\n",
        "not a dependent variable",
    )
    expect_error(
        TWO_DEP + "\n[candidates]\nfoo : : u = 1 : u = 2\n",
        "every dependent",
    )
    expect_error(TWO_DEP + "\n[candidates]\nfoo : beta : u = 1 : v = 2\n", "bad constraint 'beta'")
    expect_error(TWO_DEP + "\n[candidates]\nfoo : : u = 1 : v\n", "bad candidate field 'v'")
    (one_dep,) = load_problem_text(
        MINIMAL + "\n[candidates]\nfoo : : u = 1\n", "<test>"
    ).candidates
    assert list(one_dep.fields) == ["u"]


def test_candidate_in_terms_of_a_dependent_is_rejected():
    head = TWO_DEP + "\n[candidates]\nsteady : : u = 1 : v = 0\n"
    err = expect_error(head + "loop : beta = 0 : u = v : v = 0\n", "explicit function")
    assert err.lineno == head.count("\n") + 1
    expect_error(head + "jet : : u = 1 : v = u_x\n", "found u_x")


def test_candidate_happy_path():
    text = TWO_DEP + "\n[candidates]\nsteady : beta = 1, suspect : u = 1 : v = 0\n"
    prob = load_problem_text(text, "<test>")
    (cand,) = prob.candidates
    assert cand.label == "steady"
    assert cand.suspect is True
    assert cand.case == "steady"
    assert [name for name, _ in cand.constraints] == ["beta"]


def test_printed_override_must_target_something():
    unknown_key = MINIMAL + "\n[printed]\nnope = u\n"
    # [symmetries] entries are not overridable.
    symmetry_key = MINIMAL + "\n[symmetries]\nx1_xi_t = 1\n[printed]\nx1_xi_t = 2\n"
    for text in (unknown_key, symmetry_key):
        for printed in (True, False):
            with pytest.raises(ProblemFormatError) as info:
                load_problem_text(text, "<test>", printed=printed)
            assert "overrides nothing" in str(info.value)


def test_comments_and_blank_lines_are_ignored():
    text = MINIMAL.replace("g1 = u_t + beta*u_x", "# leading note\ng1 = u_t + beta*u_x  # trailing")
    prob = load_problem_text(text, "<test>")
    assert render(dict(prob.system.equations)["g1"]) == "u_t + beta*u_x"


def test_load_problem_from_path(tmp_path):
    target = tmp_path / "mini.prob"
    target.write_text(MINIMAL)
    prob = load_problem(str(target))
    assert prob.path == str(target)
    with pytest.raises(ProblemFormatError):
        load_problem(str(tmp_path / "absent.prob"))


REPEATS = {  # section -> (file, the line that repeats an earlier key)
    "equations": (TWO_DEP.replace("g2 = v_t", "g1 = v_t"), "g1 = v_t + beta*v_x"),
    "evolution": (TWO_DEP.replace("v_t = -beta*v_x", "u_t = -u_x*beta"), "u_t = -u_x*beta"),
    "multipliers": (
        TWO_DEP + "\n[multipliers]\npair1_q1 = u\npair1_q2 = v\npair1_q1 = v\n",
        "pair1_q1 = v",
    ),
    "conserved": (TWO_DEP + "\n[conserved]\nt1_density = u\nt1_flux = v\nt1_density = v\n", "t1_density = v"),
    "conserved-leading-zero": (
        TWO_DEP + "\n[conserved]\nt1_density = u\nt1_flux = v\nt01_density = v\n",
        "t01_density = v",
    ),
    "symmetries": (TWO_DEP + "\n[symmetries]\nx1_xi_t = 1\nx1_xi_x = 1\nx1_xi_t = 2\n", "x1_xi_t = 2"),
    "candidates": (
        TWO_DEP + "\n[candidates]\nc1 : : u = 1 : v = 0\nc2 : : u = 0 : v = 1\nc1 : : u = 2 : v = 0\n",
        "c1 : : u = 2 : v = 0",
    ),
    "printed": (TWO_DEP + "\n[printed]\ng2 = v_t + beta*v_x\ng2 = v_t\n", "g2 = v_t"),
    "reduced": (TWO_DEP + "\n[reduced]\nnote = a\nother = b\nnote = c\n", "note = c"),
}


@pytest.mark.parametrize("section", REPEATS)
def test_repeated_key_is_an_error_at_its_line(section):
    """The second spelling of a key used to replace the first silently."""
    text, repeat = REPEATS[section]
    err = expect_error(text, "duplicate key")
    assert err.lineno == text.splitlines().index(repeat) + 1


def test_printed_override_is_not_a_repeat():
    text = TWO_DEP + "\n[printed]\ng2 = v_t\n"
    plain = load_problem_text(text, "<test>")
    assert render(dict(plain.system.equations)["g2"]) == "v_t + beta*v_x"
    printed = load_problem_text(text.replace("v_t = -beta*v_x", "v_t = 0"), "<test>", True)
    assert render(dict(printed.system.equations)["g2"]) == "v_t"


def test_repeated_equation_label_stops_verify(tmp_path, capsys):
    """Two equations labelled g1 collapsed in the per-label symmetry check,
    so a field that moves g2 passed; the file is now refused at the repeat."""
    text = TWO_DEP.replace("[params]\nbeta\n\n", "").replace("beta*", "")
    text = text.replace("g2 = v_t", "g1 = v_t") + "\n[symmetries]\nx1_eta_u = x\n"
    target = tmp_path / "repeat.prob"
    target.write_text(text)
    assert main(["--problem", str(target), "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{target}:11: duplicate key 'g1'" in captured.err
    target.write_text(text.replace("g1 = v_t", "g2 = v_t"))
    assert main(["--problem", str(target), "verify"]) == 2
    assert "verify.symmetry.x1\tx1\tfail\tg1: 1" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["k_1", "kA", "é", "_k"])
def test_names_follow_the_identifier_grammar(name):
    """A name the expression grammar cannot spell used to load and then
    fail at its first use with a misleading message."""
    with pytest.raises(ValueError, match="bad variable name"):
        Context(("t", "x"), ("u",), (name,))
    expect_error(MINIMAL.replace("[params]\nbeta\n", f"[params]\nbeta\n{name}\n"), "bad variable name")
    assert Context(("t", "x"), ("u",), ("k1",)).parse("k1*u") is not None


DECLARATIONS = {  # case -> (file, the offending declaration, message)
    "bad-name": (MINIMAL.replace("[params]\nbeta\n", "[params]\nbeta\nk_1\n"), "k_1", "bad variable name 'k_1'"),
    "repeated-param": (
        MINIMAL.replace("[params]\nbeta\n", "[params]\nbeta = 1\ngamma\nbeta = 2\n"),
        "beta = 2",
        "duplicate variable name 'beta'",
    ),
    "repeated-dependent": (TWO_DEP.replace("u\nv\n", "u\nv\nu\n"), "u\n\n[equations]", "duplicate variable name 'u'"),
    "reserved": (MINIMAL.replace("[params]\nbeta\n", "[params]\nbeta\nsin\n"), "sin", "'sin' is a reserved function name"),
    "long-independent": (
        MINIMAL.replace("t\nx\n", "t\nxy\n"),
        "xy",
        "independent variable 'xy' must be a single letter",
    ),
}


@pytest.mark.parametrize("case", DECLARATIONS)
def test_declaration_errors_carry_their_line(case):
    """Context's refusals used to name the file but not the line."""
    text, offending, message = DECLARATIONS[case]
    lineno = text[: text.index(f"\n{offending}\n") + 1].count("\n") + 1
    err = expect_error(text, f"<test>:{lineno}: {message}")
    assert err.lineno == lineno


def test_repeated_constraint_target_is_an_error_at_its_line():
    """The last value used to win silently in the draws."""
    text = MINIMAL + "\n[candidates]\nfoo : beta = 0, beta = 1 : u = x\n"
    err = expect_error(text, "duplicate constraint target 'beta'")
    assert err.lineno == len(text.splitlines())
    (cand,) = load_problem_text(text.replace("beta = 1", "suspect"), "<test>").candidates
    assert [name for name, _ in cand.constraints] == ["beta"] and cand.suspect


G1 = "g1 = u_t + "  # the start of the bundled file's first equation, on line 24
TOO_DEEP = {  # nesting -> (expression, offset of the token that opens level MAX_DEPTH + 1)
    "400 parentheses": ("(" * 400 + "u" + ")" * 400, MAX_DEPTH),
    "2000 minus signs": ("-" * 2000 + "u", MAX_DEPTH),
    "150 nested sin": ("sin(" * 150 + "u" + ")" * 150, 4 * MAX_DEPTH),
}


@pytest.mark.parametrize("nesting", TOO_DEEP)
def test_nesting_past_the_cap_is_an_error_at_its_line(tmp_path, capsys, nesting):
    """Such a file used to end in a RecursionError traceback."""
    e, column = TOO_DEEP[nesting]
    target = tmp_path / "deep.prob"
    target.write_text(bundled_problem_text().replace(G1, f"g1 = {e} - u + u_t + "))
    assert main(["--problem", str(target), "verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"expression nests deeper than {MAX_DEPTH} levels (column {column + 1})"
    assert captured.err == f"nlseverify: error: {target}:24: {message}\n"


TABS = {  # case -> (file with one tab, what holds it): a key or a note reaches a TSV column
    "equations-label": (bundled_problem_text().replace(G1, "g\t1 = u_t + "), "key 'g\\t1'"),
    "multipliers-key": (TWO_DEP + "\n[multipliers]\npair1\t_q1 = u\n", "key 'pair1\\t_q1'"),
    "reduced-note": (
        bundled_problem_text().replace("= beta*w^2/2 - k", "= beta*w^2/2\t- k"),
        "reduced note 't2_flux_printed'",
    ),
}


@pytest.mark.parametrize("case", TABS)
def test_a_tab_that_would_reach_a_tsv_column_is_refused_at_its_line(tmp_path, capsys, case):
    """A tab inside an [equations] label or a [reduced] note used to end
    reduce and classify in the records' own separator check, a traceback."""
    text, what = TABS[case]
    line = text[: text.index("\t")].count("\n") + 1
    assert expect_error(text, f"{what} contains a tab").lineno == line
    target = tmp_path / "tab.prob"
    target.write_text(text)
    for command in ("verify", "associate", "reduce", "classify", "simulate"):
        assert main(["--problem", str(target), command]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"nlseverify: error: {target}:{line}: ")


def nested(kind: str, depth: int) -> str:
    """``u`` inside ``depth`` levels of ``kind``, equal to ``u`` when the
    minus signs are even."""
    if kind == "-":
        return "-" * depth + "u"
    if kind == "(":
        return "(" * depth + "u" + ")" * depth
    e = f"{kind}(" * depth + "u" + ")" * depth
    return f"{e} - {e} + u"


@pytest.mark.parametrize("kind", ["(", "-", "sin", "cos"])
def test_the_deepest_admitted_nesting_runs_verify(tmp_path, kind):
    """One level more is refused.  At the cap, verify runs to the end in a
    fresh interpreter, whose stack holds only the command line's frames,
    and prints the bundled file's results."""
    text = bundled_problem_text()
    expect_error(text.replace(G1, f"g1 = {nested(kind, MAX_DEPTH + 1)} - u + u_t + "), "nests deeper")
    target = tmp_path / "deepest.prob"
    target.write_text(text.replace(G1, f"g1 = {nested(kind, MAX_DEPTH)} - u + u_t + "))
    src = str(Path(nlseverify.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "nlseverify", "--problem", str(target), "verify"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "verify: 13 checks (13 pass)\n")
    assert proc.stdout == (Path(src).parent / "perfbench" / "golden" / "verify.tsv").read_text()


def test_a_byte_order_mark_is_not_content(tmp_path, capsys):
    """A UTF-8 file saved with a byte-order mark loads as the same file;
    a file that is not UTF-8 is still an error that names it."""
    target = tmp_path / "bom.prob"
    target.write_bytes(b"\xef\xbb\xbf" + bundled_problem_text().encode("utf-8"))
    assert main(["--problem", str(target), "verify"]) == 0
    golden = Path(nlseverify.__file__).resolve().parents[2] / "perfbench" / "golden" / "verify.tsv"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    target.write_bytes(b"[params]\nbeta\xe9\n")
    with pytest.raises(ProblemFormatError, match="'utf-8' codec can't decode byte 0xe9") as info:
        load_problem(str(target))
    assert str(target) in str(info.value)
