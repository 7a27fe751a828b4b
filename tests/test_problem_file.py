from __future__ import annotations

import pytest

from nlseverify.exprs import render
from nlseverify.problem import ProblemFormatError, load_problem, load_problem_text

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
    assert problem.printed is False
    assert "k*gamma" in problem.reduced_notes["t2_flux_printed"]


def test_suspect_flags_follow_the_file(problem):
    flags = {c.label: c.suspect for c in problem.candidates}
    assert flags["case3-const-u"] and flags["case3-const-vneg"] and flags["case3-const-vpos"]
    assert not flags["case3-travel-phase"]
    assert not flags["case1-const-u"]
    assert {c.case for c in problem.candidates} == {"case1", "case2", "case3"}


def test_printed_variant_swaps_only_listed_keys(problem, printed_problem):
    assert printed_problem.printed is True
    assert set(printed_problem.printed_keys) == {
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


def test_missing_time_variable():
    text = MINIMAL.replace("t\nx\n", "y\nx\n").replace("u_t", "u_y").replace("-beta*u_x", "-beta*u_x")
    expect_error(text, "no independent variable named t")


def test_inconsistent_evolution_is_wrapped():
    expect_error(
        MINIMAL.replace("u_t = -beta*u_x", "u_t = beta*u_x"),
        "does not solve equation g1",
    )
    expect_error(
        MINIMAL.replace("u_t = -beta*u_x", "u_t = -beta*u_t"),
        "time",
    )
    expect_error(MINIMAL.replace("u_t = -beta*u_x", "q_t = u"), "evolution key")


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
    deep = MINIMAL + "\n[conserved]\nt1_density = u_xxx\nt1_flux = u\n"
    expect_error(deep, "exceeds 2")


def test_symmetry_key_errors():
    expect_error(MINIMAL + "\n[symmetries]\nx1_xi_u = 1\n", "targets unknown variable")
    expect_error(MINIMAL + "\n[symmetries]\nx1_zeta_t = 1\n", "bad symmetry key")
    expect_error(MINIMAL + "\n[symmetries]\nx1_eta_u = u_xx\n", "exceeds first order")


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
    expect_error(
        MINIMAL + "\n[candidates]\nfoo : : u = 1 : u = 2\n",
        "require the dependents",
    )


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
