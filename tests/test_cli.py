from __future__ import annotations

import json

import pytest

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
    assert fields["reduce.ode"][3] == "sqeps occurs to odd power 3; cannot eliminate"
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


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    capsys.readouterr()


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
    assert "cubic layout" in err


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
        ("huge : c = 0 : u = (x + 10)^400 : v = 0", "non-finite residual"),
        ("huge-const : c = 0, eps = 2 : u = eps^2000 : v = 0", "overflow in eps^2000"),
    ],
    ids=["negative-sqrt", "array-overflow", "scalar-overflow"],
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


@pytest.mark.parametrize(
    "header, density, name",
    [
        (CUBIC_HEADER.replace("c1\n", "c1\nkappa\n"), "kappa*(u^2 + v^2)/2", "kappa"),
        (CUBIC_HEADER.replace("v\n[equations]", "v\nw\n[equations]") + "w_t = 0\n",
         "w_x*u", "w_x"),
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
    target = tmp_path / "transport.prob"
    target.write_text(
        "[params]\nbeta\n[independents]\nt\nx\n[dependents]\nu\n"
        "[equations]\ng1 = u_t + beta*u_x\n[evolution]\nu_t = -beta*u_x\n"
        "[conserved]\nt1_density = u\nt1_flux = beta*u\n"
    )
    code, out, err = run_cli(capsys, "--problem", str(target), "simulate", "--T", "0.01")
    assert code == 1
    assert out == ""
    assert "dependents u, v" in err


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
    "text, commands",
    [
        # The loader normalizes [equations] and [evolution], so every command fails.
        (ONE_DEP_HEADER + "[equations]\ng1 = u_t - sqrt(u)\n[evolution]\nu_t = u\n",
         EVERY_COMMAND),
        (ONE_DEP_HEADER + "[equations]\ng1 = u_t - u\n[evolution]\nu_t = sqrt(u)\n",
         EVERY_COMMAND),
        (BUNDLED.replace("pair1_q1 = v_x", "pair1_q1 = sqrt(u)"), ("verify",)),
        (BUNDLED.replace("pair2_q1 = u\n", "pair2_q1 = arctan(u)\n"), ("verify",)),
        (BUNDLED.replace("pair3_q1 = v_t", "pair3_q1 = 1/(u + v)"), ("verify",)),
        (BUNDLED.replace("t2_density = (u^2 + v^2)/2", "t2_density = sqrt(u^2 + v^2)"),
         ("verify", "associate", "reduce")),
        (BUNDLED.replace("x3_eta_u = -v", "x3_eta_u = -arctan(v)"), ("verify", "associate")),
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
def test_non_polynomial_entries_exit_one(capsys, tmp_path, text, commands):
    target = tmp_path / "nonpolynomial.prob"
    target.write_text(text)
    for command in commands:
        code, out, err = run_cli(capsys, "--problem", str(target), command)
        assert (code, out) == (1, ""), command
        assert err.startswith("nlseverify: error: ")
        assert "not polynomial" in err or "non-monomial" in err
        if commands == EVERY_COMMAND:
            assert err.startswith(f"nlseverify: error: {target}: ")
