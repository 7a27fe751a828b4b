from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlseverify
from conftest import FOURTH_ORDER_SYMMETRIES
from nlseverify.cli import main
from nlseverify.problem import bundled_problem_text

VERIFY_IDS = [
    "verify.multiplier.pair1",
    "verify.multiplier.pair2",
    "verify.multiplier.pair3",
    "verify.multiplier.pair4",
    "verify.divergence.pair1.t1",
    "verify.divergence.pair2.t2",
    "verify.divergence.pair3.t3",
    "verify.divergence.pair4.t4",
    "verify.symmetry.x1",
    "verify.symmetry.x2",
    "verify.symmetry.x3",
    "verify.symmetry.x4",
    "verify.symmetry.x5",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_records(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 13
    for line, check_id in zip(lines, VERIFY_IDS):
        fields = line.split("\t")
        assert len(fields) == 5
        assert fields[0] == check_id
        assert fields[2] == "pass"
        assert fields[3] == "0"
    assert "verify: 13 checks" in err


def test_verify_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify")
    _, second, _ = run_cli(capsys, "verify")
    assert first == second
    _, a1, _ = run_cli(capsys, "associate")
    _, a2, _ = run_cli(capsys, "associate")
    assert a1 == a2


def test_printed_variants_fail_loudly(capsys):
    code, out, err = run_cli(capsys, "--printed-variants", "verify")
    assert code == 2
    lines = out.strip().split("\n")
    verdicts = [line.split("\t")[2] for line in lines]
    assert verdicts.count("fail") == 11
    assert verdicts.count("pass") == 2
    by_id = {line.split("\t")[0]: line.split("\t") for line in lines}
    t2_fields = by_id["verify.divergence.pair2.t2"]
    assert t2_fields[2] == "fail"
    assert t2_fields[3] == "-u^3*v*delta - u*v^3*delta + v^3*delta + u^2*v*delta"
    assert by_id["verify.symmetry.x1"][2] == "pass"
    assert by_id["verify.symmetry.x2"][2] == "pass"
    assert "FAIL" in err


def test_printed_reduction_is_a_fail_record(capsys):
    code, out, err = run_cli(capsys, "--printed-variants", "reduce")
    assert code == 2
    fields = {line.split("\t")[0]: line.split("\t") for line in out.strip().split("\n")}
    assert list(fields) == [
        "reduce.jacobian",
        "reduce.density.t2",
        "reduce.flux.t2",
        "reduce.ode",
        "reduce.printed.t2_flux_printed",
    ]
    assert fields["reduce.jacobian"][2] == "pass"
    assert fields["reduce.ode"][2] == "fail"
    assert fields["reduce.ode"][3] == "the phase balance factor still holds cos(s*c + p)"
    assert "FAIL reduce.ode" in err


def test_associate_matrix_records(capsys):
    code, out, _ = run_cli(capsys, "associate")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 20
    verdicts = {}
    for line in lines:
        fields = line.split("\t")
        verdicts[fields[0]] = fields[2]
    assert verdicts["associate.x1.t2"] == "associated"
    assert verdicts["associate.x3.t2"] == "associated"
    assert verdicts["associate.x5.t2"] == "not-associated"
    assert sum(1 for v in verdicts.values() if v == "associated") == 13


def test_reduce_records(capsys):
    code, out, _ = run_cli(capsys, "reduce")
    assert code == 0
    fields = {line.split("\t")[0]: line.split("\t") for line in out.strip().split("\n")}
    assert fields["reduce.jacobian"][2] == "pass"
    assert fields["reduce.factorization"][2] == "pass"
    assert fields["reduce.density.t2"][3] == "1/2*w^2"
    assert fields["reduce.flux.t2"][3] == "-w^2*gamma*p_r + 1/2*w^2*beta"
    assert fields["reduce.phase-balance"][2] == "info"
    assert fields["reduce.printed.t2_flux_printed"][3] == "beta*w^2/2 - k*gamma*w^2*p_r"


def test_classify_records(capsys):
    code, out, _ = run_cli(capsys, "classify")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert len(rows) == 12
    verdicts = {r[1]: r[2] for r in rows}
    assert verdicts["case1-linear-phase"] == "exact"
    assert verdicts["case3-travel-phase"] == "exact"
    assert verdicts["case1-const-u"] == "reduced-only"
    assert verdicts["case2-const-phase"] == "neither"
    assert verdicts["case3-const-u"] == "suspect"

    code, out, _ = run_cli(capsys, "classify", "--case", "case1")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert len(rows) == 4
    assert all(r[1].startswith("case1") for r in rows)


def test_classify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "classify")
    _, second, _ = run_cli(capsys, "classify")
    assert first == second


def test_simulate_short_run_passes(capsys, tmp_path):
    csv_path = tmp_path / "series.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--T", "0.02", "--csv-out", str(csv_path)
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert [line.split("\t")[0] for line in lines] == [
        "simulate.drift.Q1",
        "simulate.drift.Q2",
        "simulate.drift.Q3",
        "simulate.drift.Q4",
    ]
    assert all(line.split("\t")[2] == "pass" for line in lines)
    text = csv_path.read_text()
    rows = text.strip().split("\n")
    assert rows[0] == "time,Q1,Q2,Q3,Q4"
    # t=0, two sampled steps (every 10 of 20), final step coincides.
    assert len(rows) == 4
    values = [float(f) for f in rows[1].split(",")]
    assert values[0] == 0.0
    assert abs(values[2] - 1.5707963267948966) < 1e-15


def test_simulate_failure_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "--seed", "3", "simulate", "--init", "random", "--T", "0.05"
    )
    assert code == 2
    by_id = {line.split("\t")[0]: line.split("\t") for line in out.strip().split("\n")}
    assert by_id["simulate.drift.Q4"][2] == "fail"
    assert by_id["simulate.drift.Q2"][2] == "pass"


def test_printed_variants_drive_the_simulated_flow(capsys):
    code, out, _ = run_cli(capsys, "--printed-variants", "simulate", "--T", "0.02")
    assert code == 2
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert [r[0] for r in rows] == [f"simulate.drift.Q{i}" for i in range(1, 5)]
    assert all(r[2] == "fail" for r in rows)


def test_simulate_blowup_is_a_failure_record(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--init", "random", "--dt", "0.01", "--T", "0.5"
    )
    assert code == 2
    lines = out.strip().split("\n")
    assert len(lines) == 1
    fields = lines[0].split("\t")
    assert fields[0] == "simulate.blowup"
    assert fields[2] == "fail"


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "simulate", "--N", "100")
    assert code == 1
    assert "power of two" in err
    code, _, err = run_cli(capsys, "--problem", "/no/such/file.prob", "verify")
    assert code == 1
    assert "error" in err
    code, out, err = run_cli(capsys, "classify", "--case", "nope")
    assert (code, out, err) == (1, "", "nlseverify: error: no candidates in case 'nope'\n")


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--tol", "1e-3", "classify"], ["--tol=1e-3", "classify"]])
def test_tolerance_is_not_an_option(capsys, argv):
    """The zero tolerance is ``reduction.TOL``; ``--tol`` is a usage error."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert capsys.readouterr().out == ""


def test_json_output(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "--json-out", str(target), "verify")
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "verify"
    assert len(payload["records"]) == 13
    assert payload["records"][0]["check_id"] == "verify.multiplier.pair1"
    assert set(payload["records"][0]) == {
        "check_id", "subject", "verdict", "residual", "anchor",
    }


def test_options_do_not_leak_into_the_next_call(capsys, tmp_path):
    """main reuses one parser, so each call must start from the defaults."""
    _, out, _ = run_cli(capsys, "classify", "--case", "case1")
    assert len(out.splitlines()) == 4
    _, out, _ = run_cli(capsys, "classify")
    assert len(out.splitlines()) == 12
    target = tmp_path / "report.json"
    run_cli(capsys, "--json-out", str(target), "verify")
    assert json.loads(target.read_text())["command"] == "verify"
    target.unlink()  # the same command would write the same text again
    run_cli(capsys, "verify")
    assert not target.exists()


def test_custom_problem_file(capsys, tmp_path):
    target = tmp_path / "mini.prob"
    target.write_text(
        "[params]\nbeta\n[independents]\nt\nx\n[dependents]\nu\n"
        "[equations]\ng1 = u_t + beta*u_x\n[evolution]\nu_t = -beta*u_x\n"
    )
    code, out, _ = run_cli(capsys, "--problem", str(target), "verify")
    assert code == 0
    assert out == ""
    code, _, err = run_cli(capsys, "--problem", str(target), "reduce")
    assert code == 1
    assert "exactly two dependents" in err


CUBIC_HEADER = (
    "[params]\nbeta\ngamma\ndelta\nc\neps\nc1\n"
    "[independents]\nt\nx\n[dependents]\nu\nv\n"
    "[equations]\n"
    "g1 = u_t + beta*u_x - gamma*v_xx + delta*v*(u^2 + v^2)\n"
    "g2 = -v_t - beta*v_x - gamma*u_xx + delta*u*(u^2 + v^2)\n"
    "[evolution]\n"
    "u_t = -beta*u_x + gamma*v_xx - delta*v*(u^2 + v^2)\n"
    "v_t = -beta*v_x - gamma*u_xx + delta*u*(u^2 + v^2)\n"
)


@pytest.mark.parametrize(
    "candidate, cause",
    [
        ("neg-eps : c = 0, eps = -1 : u = sqrt(eps) : v = 0",
         "sqrt of negative value -1.0 in sqrt(eps)"),
        ("huge : c = 0 : u = x^400 : v = 0", "non-finite residual"),
        # The candidate's form is expanded, so its binomial coefficients overflow.
        ("huge-sum : c = 0 : u = (x + 10)^400 : v = 0", "a constant of 309 digits overflows a float"),
        ("huge-const : c = 0, eps = 2 : u = eps^2000 : v = 0", "overflow in eps^2000"),
    ],
    ids=["negative-sqrt", "array-overflow", "expanded-constant-overflow", "scalar-overflow"],
)
def test_classify_domain_failures_are_fail_records(capsys, tmp_path, candidate, cause):
    target = tmp_path / "domain.prob"
    target.write_text(
        CUBIC_HEADER + "[candidates]\n" + candidate + "\n"
        "case1-const-u : c = 0, gamma = 0 : u = sqrt(eps) : v = 0\n"
    )
    code, out, err = run_cli(capsys, "--problem", str(target), "classify")
    assert code == 2
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert rows[0][2] == "fail"
    assert rows[0][3].startswith(cause)
    assert rows[1][2] == "reduced-only"
    assert "FAIL classify." in err


def nested_squares(levels: int) -> str:
    text = "u"
    for _ in range(levels):
        text = f"({text} + 1)^2"
    return text


@pytest.mark.parametrize(
    "old, new, argv, message",
    [
        ("g1 = u_t", f"g1 = {nested_squares(11)} - {nested_squares(11)} + u_t", ("verify",),
         "expanding a product of 513 by 513 terms exceeds 200000 term pairs"),
        ("case1-const-u : c = 0, gamma = 0 : u = sqrt(eps)",
         "case1-const-u : c = 0, gamma = 0 : u = (x + t + beta)^80", ("classify", "--case", "case1"),
         "case1-const-u: expanding a product of 561 by 561 terms exceeds 200000 term pairs"),
    ],
    ids=["nested-squares", "candidate-power"],
)
def test_expansion_past_the_cap_is_an_input_error(capsys, tmp_path, old, new, argv, message):
    """Each nested square of a sum about quadruples the expansion, so without
    the cap these files take seconds to minutes."""
    target = tmp_path / "expanded.prob"
    text = bundled_problem_text()
    assert text.count(old) == 1
    target.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "--problem", str(target), *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"{message}\n") and err.count("\n") == 1
    assert err.startswith("nlseverify: error: ")


PLAIN, PRINTED = ("verify",), ("--printed-variants", "reduce")


@pytest.mark.parametrize(
    "line, runs",
    [(24, (PLAIN, PRINTED)), (25, (PLAIN,)), (28, (PLAIN, PRINTED)), (29, (PLAIN,)), (83, (PRINTED,)),
     (84, (PRINTED,))],
    ids=["equations-g1", "equations-g2", "evolution-u", "evolution-v", "printed-g2", "printed-v"],
)
def test_expansion_past_the_cap_names_the_entry_line(capsys, tmp_path, line, runs):
    """An [equations] or [evolution] entry that expands past the cap is
    reported at its line, as a parse error in it would be; a [printed]
    spelling, which the printed variants load, at the line it is on."""
    lines = bundled_problem_text().splitlines()
    key, rhs = lines[line - 1].split(" = ")
    assert key in ("g1", "g2", "u_t", "v_t")
    lines[line - 1] = f"{key} = {nested_squares(10)} - {nested_squares(10)} + {rhs}"
    target = tmp_path / "deep.prob"
    target.write_text("\n".join(lines) + "\n")
    for argv in runs:
        code, out, err = run_cli(capsys, "--problem", str(target), *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"nlseverify: error: {target}:{line}: "
            "expanding a product of 513 by 513 terms exceeds 200000 term pairs\n"
        )


@pytest.mark.parametrize(
    "header, density, name",
    [
        (CUBIC_HEADER.replace("c1\n", "c1\nkappa\n"), "kappa*(u^2 + v^2)/2", "kappa"),
        # A third dependent is refused by the dependents check before any
        # density is sampled, so the error names the dependents.
        (CUBIC_HEADER.replace("v\n[equations]", "v\nw\n[equations]") + "w_t = 0\n",
         "w_x*u", "got u, v, w"),
        (CUBIC_HEADER, "u_t*v", "u_t"),
    ],
    ids=["unknown-parameter", "unsimulated-dependent", "time-derivative"],
)
def test_simulate_unsampleable_density_exits_one(capsys, tmp_path, header, density, name):
    target = tmp_path / "density.prob"
    target.write_text(header + f"[conserved]\nt1_density = {density}\nt1_flux = 0\n")
    code, out, err = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
    assert code == 1
    assert out == ""
    assert name in err


def test_simulate_requires_the_dependents_u_v(capsys, tmp_path):
    """Checked before any state is built, so a density naming a third
    dependent is not reported as unsampleable."""
    target = tmp_path / "transport.prob"
    for deps, density in (("u", "u"), ("uvw", "w")):
        target.write_text(
            "[params]\nbeta\n[independents]\nt\nx\n[dependents]\n"
            + "".join(f"{d}\n" for d in deps)
            + "[equations]\n" + "".join(f"g{d} = {d}_t + beta*{d}_x\n" for d in deps)
            + "[evolution]\n" + "".join(f"{d}_t = -beta*{d}_x\n" for d in deps)
            + f"[conserved]\nt1_density = {density}\nt1_flux = beta*{density}\n"
        )
        code, out, err = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
        assert (code, out) == (1, ""), deps
        assert err == (
            "nlseverify: error: simulate needs exactly two dependents, the real and imaginary "
            f"part that every --init builds, got {', '.join(deps)}\n"
        )


def test_simulate_evolution_parameter_without_option_exits_one(capsys, tmp_path):
    target = tmp_path / "kappa.prob"
    target.write_text(
        CUBIC_HEADER.replace("c1\n", "c1\nkappa\n").replace("beta*u_x", "kappa*u_x")
    )
    code, out, err = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
    assert code == 1
    assert out == ""
    assert "kappa" in err and "evolution" in err
    assert "densities" not in err


def test_simulate_domain_error_is_a_failure_record(capsys, tmp_path):
    target = tmp_path / "inverse.prob"
    target.write_text(
        "[params]\nbeta\n[independents]\nt\nx\n[dependents]\nu\nv\n"
        "[equations]\ng1 = u_t\ng2 = v_t - 1/v\n"
        "[evolution]\nu_t = 0\nv_t = 1/v\n"
    )
    # The plane wave's v = a*sin(k*x) is exactly zero at x = 0.
    code, out, _ = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
    assert code == 2
    (row,) = [line.split("\t") for line in out.strip().split("\n")]
    assert row[0] == "simulate.domain"
    assert row[2] == "fail"
    assert row[3] == "zero base with negative exponent in v^-1"


ONE_DEP_HEADER = "[params]\nbeta\n[independents]\nt\nx\n[dependents]\nu\n"
BUNDLED = bundled_problem_text()
EVERY_COMMAND = ("verify", "associate", "reduce", "classify", "simulate")


@pytest.mark.parametrize(
    "text, commands, key",
    [
        # The loader normalizes [equations] and [evolution], so every command fails.
        (ONE_DEP_HEADER + "[equations]\ng1 = u_t - sqrt(u)\n[evolution]\nu_t = u\n",
         EVERY_COMMAND, "g1"),
        (ONE_DEP_HEADER + "[equations]\ng1 = u_t - u\n[evolution]\nu_t = sqrt(u)\n",
         EVERY_COMMAND, "u_t"),
        (BUNDLED.replace("pair1_q1 = v_x", "pair1_q1 = sqrt(u)"), ("verify",), "pair1_q1"),
        (BUNDLED.replace("pair2_q1 = u\n", "pair2_q1 = arctan(u)\n"), ("verify",), "pair2_q1"),
        (BUNDLED.replace("pair3_q1 = v_t", "pair3_q1 = 1/(u + v)"), ("verify",), "pair3_q1"),
        (BUNDLED.replace("t2_density = (u^2 + v^2)/2", "t2_density = sqrt(u^2 + v^2)"),
         ("verify", "associate", "reduce"), "t2_density"),
        (BUNDLED.replace("x3_eta_u = -v", "x3_eta_u = -arctan(v)"), ("verify", "associate"),
         "x3_eta_u"),
    ],
    ids=[
        "equations-sqrt",
        "evolution-sqrt",
        "multipliers-sqrt",
        "multipliers-arctan",
        "multipliers-reciprocal",
        "conserved-sqrt",
        "symmetries-arctan",
    ],
)
def test_non_polynomial_entries_exit_one(capsys, tmp_path, text, commands, key):
    """The message names the entry: a system's entry by its line, which the
    loader reaches; a record's entry, normalized later, by its key."""
    target = tmp_path / "nonpolynomial.prob"
    target.write_text(text)
    for command in commands:
        code, out, err = run_cli(capsys, "--problem", str(target), command)
        assert (code, out) == (1, ""), command
        assert err.startswith("nlseverify: error: ")
        assert "not polynomial" in err or "non-monomial" in err
        if commands == EVERY_COMMAND:  # the entry's line, as a parse error names it
            line = text[: text.index("sqrt")].count("\n") + 1
            assert err.startswith(f"nlseverify: error: {target}:{line}: ")
            assert text.splitlines()[line - 1].startswith(f"{key} = ")
        else:
            assert err.startswith(f"nlseverify: error: {key}: "), command


# every key of the bundled [equations], [multipliers], [conserved] and [symmetries]
CANCELLABLE = [
    line.split(" = ")[0]
    for section in ("equations", "multipliers", "conserved", "symmetries")
    for line in BUNDLED.split(f"[{section}]\n")[1].split("\n\n")[0].splitlines()
]
CANCELS = [(key, jet) for key in CANCELLABLE for jet in ("u_xx", "v_tx")]


@pytest.mark.parametrize(
    "key, jet",
    [("g1", "u_xxx"), ("g1", "u_xxxx"), *CANCELS],
    ids=["u_xxx", "u_xxxx", *(f"{key}-{jet}" for key, jet in CANCELS)],
)
def test_a_jet_that_cancels_in_an_equation_changes_no_result(capsys, tmp_path, key, jet):
    """``E + J - J`` is the same entry ``E``, whatever its section.
    ``classify`` used to end in a KeyError (the compiled equations bind every
    jet of the tree, the candidates' jets were derived from the normal form),
    ``verify`` asked ``g1 + u_xxxx - u_xxxx`` for a prolongation past the
    maximum jet order, and a symmetry coefficient was refused for the jets
    of its tree."""
    line = next(line for line in BUNDLED.splitlines() if line.startswith(f"{key} = "))
    target = tmp_path / "cancel.prob"
    target.write_text(BUNDLED.replace(line, f"{line} + {jet} - {jet}", 1))
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
    for command in ("verify", "associate", "reduce"):
        code, out, _ = run_cli(capsys, "--problem", str(target), command)
        assert (code, out) == (0, (golden / f"{command}.tsv").read_text(encoding="utf-8")), command
    if key not in ("g1", "g2"):
        return
    code, out, _ = run_cli(capsys, "--problem", str(target), "classify")
    bundled = run_cli(capsys, "classify")[1]
    verdicts = [[line.split("\t")[:3] for line in o.splitlines()] for o in (out, bundled)]
    assert code == 0 and verdicts[0] == verdicts[1] and len(verdicts[0]) == 12
    assert run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")[0] == 0


def test_non_polynomial_candidate_exits_one(capsys, tmp_path):
    """A candidate field follows the rule of every other entry: only
    polynomials in sin, cos and the square root of a single parameter."""
    line = "case1-const-u : c = 0, gamma = 0 : u = sqrt(eps) : v = 0"
    target = tmp_path / "candidate.prob"
    for field in ("arctan(x)", "sqrt(x + 1)", "sqrt(2*eps)"):
        target.write_text(BUNDLED.replace(line, line.replace("sqrt(eps)", field)))
        code, out, err = run_cli(capsys, "--problem", str(target), "classify")
        assert (code, out) == (1, ""), field
        assert err.startswith("nlseverify: error: ") and "is not polynomial" in err, field
    for command in EVERY_COMMAND:
        assert run_cli(capsys, "--problem", str(target), command)[0] in (0, 1, 2), command


THIRD_ORDER = BUNDLED.replace(
    "g1 = u_t + beta*u_x", "g1 = u_t + u_xxx + beta*u_x"
).replace("u_t = -beta*u_x", "u_t = -u_xxx - beta*u_x")
FOURTH_ORDER = BUNDLED.replace(
    "g1 = u_t + beta*u_x", "g1 = u_t + u_xxxx + beta*u_x"
).replace("u_t = -beta*u_x", "u_t = -u_xxxx - beta*u_x")


JET_PAST_CAP = "jet order 5 exceeds maximum 4"


@pytest.mark.parametrize(
    "text, commands, message",
    [
        # The Euler operator of a third- or fourth-order multiplier needs jets past 4.
        (BUNDLED.replace("pair1_q1 = v_x", "pair1_q1 = u_xxx"), ("verify",), JET_PAST_CAP),
        (BUNDLED.replace("pair1_q1 = v_x", "pair1_q1 = u_xxxx"), ("verify",), JET_PAST_CAP),
        # Only jets that occur are differentiated; the rule still needs u_xxxxx.
        (FOURTH_ORDER, ("verify", "associate"), JET_PAST_CAP),
        # Without multipliers, verify reaches the prolongation: a first-order
        # eta makes zeta[u_xxxx] hold u_xxxxx.
        (ONE_DEP_HEADER + "[equations]\ng1 = u_t + u_xxxx\n[evolution]\nu_t = -u_xxxx\n"
         "[symmetries]\nx1_eta_u = u_x\n", ("verify",), JET_PAST_CAP),
    ],
    ids=["multiplier-order-3", "multiplier-order-4", "system-order-4", "prolong-order-4"],
)
def test_high_order_jets_exit_one(capsys, tmp_path, text, commands, message):
    target = tmp_path / "highorder.prob"
    target.write_text(text)
    for command in commands:
        code, out, err = run_cli(capsys, "--problem", str(target), command)
        assert (code, out, err) == (1, "", f"nlseverify: error: {message}\n"), command


def test_fourth_order_symmetries_verify_up_to_the_cap(capsys, tmp_path):
    """A point field of a fourth-order equation verifies unless one of the
    coefficients g1 reads needs a jet past the cap, as eta_u = u_x does;
    then the command prints no record, not even the other fields'."""
    target = tmp_path / "fourth.prob"
    target.write_text(FOURTH_ORDER_SYMMETRIES)
    code, out, err = run_cli(capsys, "--problem", str(target), "verify")
    assert code == 2
    assert [line.split("\t")[2] for line in out.splitlines()] == ["pass"] * 4 + ["fail"] * 2
    assert err.splitlines()[1:] == [
        "  FAIL verify.symmetry.x5: g1: (-2)*u_xxxx", "  FAIL verify.symmetry.x6: g1: -u_x",
    ]
    target.write_text(FOURTH_ORDER_SYMMETRIES + "x7_eta_u = u_x\n")
    code, out, err = run_cli(capsys, "--problem", str(target), "verify")
    assert (code, out, err) == (1, "", f"nlseverify: error: {JET_PAST_CAP}\n")


TRANSPORT = ONE_DEP_HEADER + (
    "[equations]\ng1 = u_t + beta*u_x\n[evolution]\nu_t = -beta*u_x\n"
    "[multipliers]\npair1_q1 = u\n[conserved]\n"
)


@pytest.mark.parametrize(
    "density, flux, code, verify_out",
    [
        # D_t and D_x of a third-order component stay within the cap.
        ("u^2/2 + u_xxx", "beta*u^2/2 + beta*u_xxx", 2,
         "verify.divergence.pair1.t1\tpair1,t1\tfail\tbeta*u_xxxx + u_txxx\t"),
        ("u_xxxx", "beta*u_xxxx", 1, ""),
    ],
    ids=["order-3", "order-4"],
)
def test_conserved_vector_order_follows_the_jet_cap(
    capsys, tmp_path, density, flux, code, verify_out
):
    target = tmp_path / "transport.prob"
    target.write_text(TRANSPORT + f"t1_density = {density}\nt1_flux = {flux}\n")
    got, out, err = run_cli(capsys, "--problem", str(target), "verify")
    assert got == code
    if verify_out:
        assert verify_out in out
    else:
        assert (out, err) == ("", "nlseverify: error: jet order 5 exceeds maximum 4\n")
    for command in EVERY_COMMAND:
        assert run_cli(capsys, "--problem", str(target), command)[0] in (0, 1, 2), command


def test_classify_binds_jets_to_the_system_order(capsys, tmp_path):
    _, bundled_out, _ = run_cli(capsys, "classify")
    target = tmp_path / "third.prob"
    target.write_text(THIRD_ORDER)
    code, out, _ = run_cli(capsys, "--problem", str(target), "classify")
    rows = [line.split("\t") for line in out.strip().split("\n")]
    assert code == 0
    assert len(rows) == 12 and all(r[2] != "fail" for r in rows)
    bundled = {r[1]: r[2] for r in (line.split("\t") for line in bundled_out.splitlines())}
    const = {r[1]: r[2] for r in rows if "-const-" in r[1] and r[1] != "case2-const-phase"}
    assert len(const) == 9
    assert const == {label: bundled[label] for label in const}


def line_of(text: str, fragment: str) -> int:
    return text[: text.index(fragment)].count("\n") + 1


@pytest.mark.parametrize(
    "old, new",
    [
        ("pair1_q1 = v_x", "pair1_q1 = sqrt(-1)*v_x"),
        ("0, gamma = 0 : u = sqrt(eps) : v = 0", "0, gamma = 0 : u = sqrt(-2) : v = 0"),
        ("gamma = 1/2", "gamma = sqrt(-1)"),
    ],
    ids=["multipliers", "candidates", "params"],
)
def test_negative_constant_sqrt_is_an_error_at_its_line(capsys, tmp_path, old, new):
    text = BUNDLED.replace(old, new, 1)
    target = tmp_path / "negative.prob"
    target.write_text(text)
    for command in ("verify", "classify"):
        code, out, err = run_cli(capsys, "--problem", str(target), command)
        assert (code, out) == (1, ""), command
        assert err == (
            f"nlseverify: error: {target}:{line_of(text, new)}: sqrt of a negative constant\n"
        )


def test_angular_combination_needs_one_equation_per_dependent(capsys, tmp_path):
    """One or three equations for two dependents: no angular combination,
    so classify and reduce refuse the file alike (reduce used to leave a
    ``reduce.ode`` fail record)."""
    base = (
        BUNDLED[: BUNDLED.index("[multipliers]")]
        + BUNDLED[BUNDLED.index("[conserved]") : BUNDLED.index("[printed]")]
    )
    g1 = re.search(r"(?m)^g1 = .*\n", base)[0]
    g2 = re.search(r"(?m)^g2 = .*\n", base)[0]
    target = tmp_path / "equations.prob"
    for n_eq, text in ((1, base.replace(g2, "")), (3, base.replace(g2, g2 + "g3" + g1[2:]))):
        target.write_text(text)
        for command in ("classify", "reduce"):
            code, out, err = run_cli(capsys, "--problem", str(target), command)
            assert (code, out) == (1, ""), (n_eq, command)
            assert err == (
                f"nlseverify: error: {command}: the angular combination needs one equation "
                f"per dependent, got {n_eq} equations for 2 dependents\n"
            )
        for command in EVERY_COMMAND:
            assert run_cli(capsys, "--problem", str(target), command)[0] in (0, 1, 2), command


def test_constraint_value_may_name_only_parameters(capsys, tmp_path):
    """A value naming a variable used to load and leave a classify ``fail``
    record, "no value bound for x"; a parameter is bound in file order."""
    line = "case1-const-u : c = 0, gamma = 0 :"
    target = tmp_path / "constraint.prob"
    for value in ("x", "u_x"):
        text = BUNDLED.replace(line, line.replace("gamma = 0", f"gamma = {value}"))
        target.write_text(text)
        where = f"{target}:{line_of(text, 'case1-const-u')}"
        for command in EVERY_COMMAND:
            assert run_cli(capsys, "--problem", str(target), command) == (
                1,
                "",
                f"nlseverify: error: {where}: constraint value of gamma may name only "
                f"parameters, found {value}\n",
            ), (value, command)
    target.write_text(BUNDLED.replace(line, line.replace("gamma = 0", "gamma = c")))
    assert run_cli(capsys, "--problem", str(target), "classify") == run_cli(capsys, "classify")


@pytest.mark.parametrize("value", ["x", "beta", "2^5000"], ids=["variable", "parameter", "overflow"])
def test_parameter_value_must_be_a_finite_constant(capsys, tmp_path, value):
    text = BUNDLED.replace("gamma = 1/2", f"gamma = {value}")
    target = tmp_path / "value.prob"
    target.write_text(text)
    where = f"nlseverify: error: {target}:{line_of(text, 'gamma = ')}: value of gamma "
    for command in EVERY_COMMAND:
        code, out, err = run_cli(capsys, "--problem", str(target), command)
        assert (code, out) == (1, ""), command
        assert err.startswith(where), err


@pytest.mark.parametrize("power", [5000, 20000])
def test_overflowing_candidate_constant_gives_a_short_record(capsys, tmp_path, power):
    """The record names the constant's size, not its digits; past 4300
    digits ``str`` of the constant would raise."""
    line = "case1-const-u : c = 0, gamma = 0 : u = sqrt(eps) : v = 0"
    target = tmp_path / "big.prob"
    target.write_text(BUNDLED.replace(line, line.replace("sqrt(eps)", f"sqrt(eps)*2^{power}")))
    code, out, _ = run_cli(capsys, "--problem", str(target), "classify")
    (record,) = [r.split("\t") for r in out.splitlines() if r.startswith("classify.case1-const-u\t")]
    assert code == 2
    assert record[2] == "fail"
    assert "overflows a float" in record[3] and len(record[3]) < 100


def test_a_function_of_inf_is_a_fail_record(capsys, tmp_path):
    """math.sin(inf) raises ValueError; the draw fails with the function,
    its argument and the subtree, like any other domain error."""
    line = "case1-const-u : c = 0, gamma = 0"
    target = tmp_path / "sin-inf.prob"
    target.write_text(BUNDLED.replace(line, line.replace("c = 0", "c = sin(beta^1000*beta^1000)")))
    code, out, _ = run_cli(
        capsys, "--problem", str(target), "--seed", "1", "classify", "--case", "case1"
    )
    (record,) = [r.split("\t") for r in out.splitlines() if r.startswith("classify.case1-const-u\t")]
    assert code == 2
    assert record[2:4] == ["fail", "sin of inf in sin(beta^1000*beta^1000)"]


def test_a_trig_atom_of_a_jet_that_vanishes_on_shell_folds(capsys, tmp_path):
    """On shell u_t = 0, so sin(u_t) and 1 - cos(u_t) fold to 0 and the
    time translation x1 leaves g1 invariant."""
    text = re.sub(r"(?m)^g1 = .*$", "g1 = u_t + sin(u_t) + 1 - cos(u_t)", BUNDLED)
    target = tmp_path / "trig.prob"
    target.write_text(re.sub(r"(?m)^u_t = .*$", "u_t = 0", text))
    code, out, _ = run_cli(capsys, "--problem", str(target), "verify")
    assert code == 2
    records = {line.split("\t")[0]: line.split("\t")[2:4] for line in out.splitlines()}
    assert records["verify.symmetry.x1"] == ["pass", "0"]


def test_simulate_integrates_with_the_file_values(capsys, tmp_path):
    """A changed [params] value changes the simulated flow, nothing else."""
    target = tmp_path / "beta.prob"
    target.write_text(BUNDLED.replace("beta = 1\n", "beta = 3/2\n"))
    for command in ("verify", "reduce"):
        assert run_cli(capsys, "--problem", str(target), command) == run_cli(capsys, command)
    _, bundled, _ = run_cli(capsys, "simulate", "--T", "0.1")
    code, out, _ = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.1")
    assert code in (0, 2) and out != bundled


@pytest.mark.parametrize("name", ["beta", "delta", "eps", "c1"])
def test_case1_exact_needs_its_parameter_values(capsys, tmp_path, name):
    text = re.sub(rf"(?m)^{name} = .*$", name, BUNDLED)
    assert text != BUNDLED
    target = tmp_path / "bare.prob"
    target.write_text(text)
    code, out, err = run_cli(
        capsys, "--problem", str(target), "simulate", "--init", "case1-exact", "--T", "0.01"
    )
    assert (code, out) == (1, "")
    assert err == f"nlseverify: error: --init case1-exact needs a [params] value for '{name}'\n"
    for command in EVERY_COMMAND:
        assert run_cli(capsys, "--problem", str(target), command)[0] in (0, 1, 2), command


def test_case1_exact_starts_from_the_file_candidate(capsys, tmp_path):
    """The start state is the file's case1-linear-phase candidate: a file
    without it is an input error, and a file that changes it changes the
    run."""
    line = next(l for l in BUNDLED.splitlines() if l.startswith("case1-linear-phase "))
    args = ("simulate", "--init", "case1-exact", "--T", "0.01")
    target = tmp_path / "none.prob"
    target.write_text(BUNDLED.replace(line + "\n", ""))
    code, out, err = run_cli(capsys, "--problem", str(target), *args)
    assert (code, out) == (1, "")
    assert err == (
        "nlseverify: error: --init case1-exact needs the [candidates] entry case1-linear-phase\n"
    )
    target = tmp_path / "doubled.prob"
    target.write_text(BUNDLED.replace(line, line.replace("u = sqrt(eps)", "u = 2*sqrt(eps)")))
    series = {}
    for name, problem in (("bundled", ()), ("doubled", ("--problem", str(target)))):
        csv = tmp_path / f"{name}.csv"
        assert run_cli(capsys, *problem, *args, "--csv-out", str(csv))[0] in (0, 2)
        series[name] = csv.read_text()
    q2 = [float(text.splitlines()[1].split(",")[2]) for text in series.values()]
    assert q2[1] == pytest.approx(2.5 * q2[0])


@pytest.mark.parametrize(
    "text, message",
    [
        (BUNDLED.replace("gamma = 1/2", "gamma"),
         "cannot sample the conserved densities: no value bound for gamma"),
        (BUNDLED[: BUNDLED.index("[multipliers]")].replace("gamma = 1/2", "gamma"),
         "cannot evaluate the [evolution] rules: no value bound for gamma"),
    ],
    ids=["density", "rule"],
)
def test_parameter_without_value_names_it(capsys, tmp_path, text, message):
    target = tmp_path / "bare.prob"
    target.write_text(text)
    code, out, err = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
    assert (code, out, err) == (1, "", f"nlseverify: error: {message}\n")


@pytest.mark.parametrize(
    "rule", ["beta_t = u", "x_t = u"], ids=["parameter", "independent"]
)
def test_evolution_rule_for_a_non_dependent_is_an_error_at_its_line(capsys, tmp_path, rule):
    text = BUNDLED.replace("\n[multipliers]", f"{rule}\n\n[multipliers]", 1)
    target = tmp_path / "rule.prob"
    target.write_text(text)
    key = rule.split(" = ")[0]
    where = f"{target}:{line_of(text, rule)}"
    for command in EVERY_COMMAND:
        code, out, err = run_cli(capsys, "--problem", str(target), command)
        assert (code, out) == (1, ""), command
        assert err == f"nlseverify: error: {where}: evolution key {key!r} must be <dependent>_t\n"


def test_non_utf8_problem_file_is_an_error(capsys, tmp_path):
    target = tmp_path / "utf16.prob"
    target.write_bytes(b"\xff\xfe" + BUNDLED.encode("utf-16-le"))
    code, out, err = run_cli(capsys, "--problem", str(target), "verify")
    assert (code, out) == (1, "")
    assert err.startswith(f"nlseverify: error: {target}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--dt", "nan"), "dt, T must be positive and finite"),
        (("--T", "inf"), "dt, T must be positive and finite"),
        (("--T", "1e300", "--dt", "1e-300"), "T/dt overflows a float"),
        (("--T", "1e-4", "--dt", "1e-3"), "horizon shorter than one step"),
        (("--drift-tol", "nan"), "drift-tol must be positive, got nan"),
        (("--init", "random", "--L", "5"), "wavenumber 0.5 is not periodic on length 5.0"),
        (("--a", "nan"), "a, k must be finite, got a=nan, k=1.0"),
        (("--k", "inf"), "a, k must be finite, got a=0.5, k=inf"),
        (("--L", "inf"), "grid length must be positive and finite, got inf"),
        (("--L", "1e-300"), "grid spacing 3.91e-303 squares to zero in floating point"),
        (("--csv-out", "{missing}/series.csv"), "--csv-out: [Errno 2] No such file"),
        (("--json-out", "{missing}/report.json"), "--json-out: [Errno 2] No such file"),
    ],
    ids=["dt-nan", "T-inf", "steps-overflow", "short-horizon", "drift-tol-nan",
         "random-not-periodic", "a-nan", "k-inf", "L-inf", "L-underflow", "csv-out", "json-out"],
)
def test_bad_simulate_arguments_exit_one(capsys, tmp_path, argv, message):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    if argv[0] == "--json-out":
        argv = argv + ["simulate", "--T", "0.01"]
    else:
        argv = ["simulate", "--T", "0.01", *argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"nlseverify: error: {message}"), err
    assert err.count("\n") == 1


def test_infinite_drift_tolerance_passes_every_record(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--T", "0.01", "--drift-tol", "inf")
    assert code == 0
    assert [line.split("\t")[2] for line in out.splitlines()] == ["pass"] * 4


def nan_field_text() -> str:
    """inf - inf fills v with nan while u stays finite."""
    overflow = "(100*u)^400 - (100*u)^400"
    text = re.sub(r"(?m)^g1 = .*$", "g1 = u_t", BUNDLED)
    text = re.sub(r"(?m)^g2 = .*$", f"g2 = -v_t + {overflow}", text)
    text = re.sub(r"(?m)^u_t = .*$", "u_t = 0", text)
    return re.sub(r"(?m)^v_t = .*$", f"v_t = {overflow}", text)


def test_a_nan_field_is_a_blowup_record(capsys, tmp_path):
    """The step used to accept the nan field, and the four drift records
    passed with drift 0."""
    target = tmp_path / "nan.prob"
    target.write_text(nan_field_text())
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
    assert code == 2
    (record,) = out.splitlines()
    assert record.split("\t")[:3] == ["simulate.blowup", "plane-wave", "fail"]
    assert "solution magnitude nan at t=0.001" in record


def test_a_nan_sample_fails_its_drift_record(capsys, tmp_path):
    """Q2 is finite at t = 0 and nan afterwards, with finite fields."""
    spike = "(1000*t + u - u)^400"
    text = BUNDLED.replace("t2_density = (u^2 + v^2)/2", f"t2_density = (u^2 + v^2)/2 + {spike} - {spike}")
    target = tmp_path / "nan-sample.prob"
    target.write_text(text)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.02")
    assert code == 2
    verdicts = {line.split("\t")[0]: line.split("\t")[2:4] for line in out.splitlines()}
    assert verdicts["simulate.drift.Q2"] == ["fail", "nan"]
    assert verdicts["simulate.drift.Q1"][0] == "pass"


def test_simulate_leaves_numpy_warnings_off_stderr(tmp_path):
    """A fresh ``python -m nlseverify``: numpy's overflow, invalid-value and
    divide warnings used to reach stderr, with the install path.  They came
    from the rules on the nan field, from a plane wave whose phase k*x
    overflows, from the drift of a nan sample, and from the stencils and
    rules on a grid so fine that the step overflows."""
    target = tmp_path / "nan.prob"
    target.write_text(nan_field_text())
    src = str(Path(nlseverify.__file__).resolve().parents[1])
    blowup = [
        "simulate: 1 checks (1 fail)",
        "  FAIL simulate.blowup: solution magnitude nan at t=0.001; reduce dt (see suggested_dt) "
        "or the spatial resolution",
    ]
    runs = [
        (["--problem", str(target), "simulate", "--T", "0.01"], blowup),
        (["simulate", "--T", "0.002", "--k", "1e308"], blowup),
        (
            ["simulate", "--N", "16", "--L", "1e308"],
            ["simulate: 4 checks (1 fail, 3 pass)", "  FAIL simulate.drift.Q4: nan"],
        ),
        (["simulate", "--L", "1e-150"], blowup),
    ]
    for argv, summary in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "nlseverify", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
        )
        assert proc.returncode == 2, argv
        assert proc.stderr.splitlines() == summary, argv
