"""`reduce` on edited copies of the bundled problem file.

The two factors of the reduced profile equation are derived from the
file's equations, so a changed nonlinearity or dispersion shows in them,
and the reduced coordinates follow the file's names.  A SymPy oracle
re-derives both factors from the rendered equations.
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from nlseverify.cli import main
from nlseverify.exprs import JetVar, collect_refs, render
from nlseverify.problem import bundled_problem_text, load_problem_text
from nlseverify.reduction import build_canonical_transform, reduced_ode

BUNDLED = bundled_problem_text()
GOLDEN_REDUCE = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "reduce.tsv"

EDITS = {
    "bundled": (),
    # A quintic term beside the cubic one, in both equations and both rules.
    "quintic": (
        ("[params]\n", "[params]\nkappa\n"),
        ("+ delta*v*(u^2 + v^2)\n", "+ delta*v*(u^2 + v^2) + kappa*v*(u^2 + v^2)^2\n"),
        ("- delta*v*(u^2 + v^2)\n", "- delta*v*(u^2 + v^2) - kappa*v*(u^2 + v^2)^2\n"),
        ("+ delta*u*(u^2 + v^2)\n", "+ delta*u*(u^2 + v^2) + kappa*u*(u^2 + v^2)^2\n"),
    ),
    # Third-order dispersion alpha*q_xxx of the complex field q = u + i*v.
    "third-order": (
        ("[params]\n", "[params]\nalpha\n"),
        ("g1 = u_t + beta*u_x", "g1 = u_t + alpha*u_xxx + beta*u_x"),
        ("u_t = -beta*u_x", "u_t = -alpha*u_xxx - beta*u_x"),
        ("g2 = -v_t - beta*v_x", "g2 = -v_t - alpha*v_xxx - beta*v_x"),
        ("v_t = -beta*v_x", "v_t = -alpha*v_xxx - beta*v_x"),
    ),
    # u_xxx in the real part only: not a complex equation, not invariant
    # under the rotation.
    "real-third-order": (
        ("g1 = u_t + beta*u_x", "g1 = u_t + u_xxx + beta*u_x"),
        ("u_t = -beta*u_x", "u_t = -u_xxx - beta*u_x"),
    ),
    # A source term in the real part only: the phase balance gains
    # sin(theta)/sqrt(eps), a lone sin beside the root.
    "source": (
        ("g1 = u_t + beta*u_x", "g1 = u_t + beta*u_x + 1"),
        ("u_t = -beta*u_x", "u_t = -beta*u_x - 1"),
    ),
    "param-w": (("[params]\n", "[params]\nw\n"),),
}


def variant(name: str) -> str:
    text = BUNDLED
    for old, new in EDITS[name]:
        assert old in text, (name, old)
        text = text.replace(old, new)
    return text


def renamed_dependents() -> str:
    """The bundled file without candidates, with u, v spelled a, b
    everywhere: declarations, jets, evolution and _eta_ keys."""
    text = BUNDLED[: BUNDLED.index("[candidates]")] + BUNDLED[BUNDLED.index("[printed]") :]
    return re.sub(
        r"(?<![A-Za-z0-9])([uv])(?=_|(?![A-Za-z0-9]))",
        lambda m: {"u": "a", "v": "b"}[m.group(1)],
        text,
    )


def run_reduce(capsys, tmp_path, text):
    target = tmp_path / "variant.prob"
    target.write_text(text)
    code = main(["--problem", str(target), "reduce"])
    captured = capsys.readouterr()
    fields = {line.split("\t")[0]: line.split("\t") for line in captured.out.splitlines()}
    return code, captured.out, captured.err, fields


def test_quintic_term_enters_the_phase_balance(capsys, tmp_path):
    code, _, _, fields = run_reduce(capsys, tmp_path, variant("quintic"))
    assert code == 0
    assert fields["reduce.phase-balance"][3] == (
        "gamma*p_r^2 + eps^2*kappa + delta*eps - beta*p_r - c"
    )
    assert fields["reduce.curvature"][3] == "gamma*p_rr"
    assert fields["reduce.factorization"][2:4] == ["pass", "0"]


def test_third_order_dispersion_enters_both_factors(capsys, tmp_path):
    code, _, _, fields = run_reduce(capsys, tmp_path, variant("third-order"))
    assert code == 0
    assert fields["reduce.phase-balance"][3] == (
        "alpha*p_r^3 + gamma*p_r^2 + delta*eps - beta*p_r - alpha*p_rrr - c"
    )
    assert fields["reduce.curvature"][3] == "3*alpha*p_r*p_rr + gamma*p_rr"
    assert fields["reduce.factorization"][2:4] == ["pass", "0"]


def test_unreduced_system_names_the_leftover_atom(capsys, tmp_path):
    code, _, err, fields = run_reduce(capsys, tmp_path, variant("real-third-order"))
    assert code == 2
    cause = fields["reduce.ode"][3]
    assert fields["reduce.ode"][2] == "fail"
    assert "cos(s*c + p)" in cause
    assert "odd power" not in cause
    assert "reduce.phase-balance" not in fields
    assert "FAIL reduce.ode" in err
    # sqrt(eps) may stay in a factor; a sin may not
    _, _, _, fields = run_reduce(capsys, tmp_path, variant("source"))
    assert fields["reduce.ode"][2:4] == ["fail", "the phase balance factor still holds sin(s*c + p)"]


def test_renamed_dependents_reduce_to_the_same_records(capsys, tmp_path):
    code, out, _, _ = run_reduce(capsys, tmp_path, renamed_dependents())
    assert code == 0
    golden = GOLDEN_REDUCE.read_text(encoding="utf-8")
    assert out == golden.replace("\tu*g1 + v*g2\t", "\ta*g1 + b*g2\t")


def test_labels_follow_the_file_names(capsys, tmp_path):
    """Independents t, y, dependents q, m and equations re, im label the
    jacobian and ode records; the factors are the bundled ones."""
    text = (
        "[params]\nbeta\ngamma\ndelta\n[independents]\nt\ny\n[dependents]\nq\nm\n"
        "[equations]\n"
        "re = q_t + beta*q_y - gamma*m_yy + delta*m*(q^2 + m^2)\n"
        "im = -m_t - beta*m_y - gamma*q_yy + delta*q*(q^2 + m^2)\n"
        "[evolution]\n"
        "q_t = -beta*q_y + gamma*m_yy - delta*m*(q^2 + m^2)\n"
        "m_t = -beta*m_y - gamma*q_yy + delta*q*(q^2 + m^2)\n"
    )
    code, _, _, fields = run_reduce(capsys, tmp_path, text)
    assert code == 0
    assert fields["reduce.jacobian"][1:3] == ["(t,y)->(s,r)", "pass"]
    assert fields["reduce.jacobian"][4] == "det[D(t,y)/D(s,r)] = 1"
    assert fields["reduce.ode"][1:3] == ["q*re + m*im", "info"]
    assert fields["reduce.phase-balance"][3] == "gamma*p_r^2 + delta*eps - beta*p_r - c"
    assert fields["reduce.curvature"][3] == "gamma*p_rr"
    assert fields["reduce.factorization"][1:4] == ["combination,im,re", "pass", "0"]


def test_conserved_jets_deeper_than_the_system_are_transformed(capsys, tmp_path):
    """A first-order system with a second-order t2: every jet of t2 is
    rewritten in the reduced variables, none is left as u_xx."""
    text = (
        "[params]\nbeta\n[independents]\nt\nx\n[dependents]\nu\nv\n"
        "[equations]\ng1 = u_t + beta*u_x\ng2 = -v_t - beta*v_x\n"
        "[evolution]\nu_t = -beta*u_x\nv_t = -beta*v_x\n"
        "[conserved]\nt1_density = u\nt1_flux = beta*u\n"
        "t2_density = u*u_xx + v*v_xx\nt2_flux = beta*(u*u_xx + v*v_xx)\n"
    )
    code, _, _, fields = run_reduce(capsys, tmp_path, text)
    assert code == 0
    assert fields["reduce.density.t2"][3] == "-w^2*p_r^2 + w*w_rr"
    assert fields["reduce.phase-balance"][3] == "-beta*p_r - c"


def test_parameter_named_like_a_reduced_variable_exits_one(capsys, tmp_path):
    code, out, err, _ = run_reduce(capsys, tmp_path, variant("param-w"))
    assert (code, out) == (1, "")
    assert err.startswith("nlseverify: error: reduce: ")
    assert "'w'" in err and "r, s, w, p" in err


@pytest.mark.parametrize("name", ["bundled", "quintic", "third-order"])
def test_factors_agree_with_sympy(name):
    """Substitute u = sqrt(eps)*cos(P(r) + c*s), v = sqrt(eps)*sin(...) into
    the rendered equations with SymPy, rotate back and compare both factors
    with the derived ones, p_r read as P'(r)."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    system = load_problem_text(variant(name), f"{name}.prob").system
    ode = reduced_ode(build_canonical_transform(system))

    r, s = sympy.symbols("r s")
    eps = sympy.Symbol("eps", positive=True)
    params = {q.name: sympy.Symbol(q.name) for q in system.ctx.parameters}
    params["eps"] = eps
    P = sympy.Function("P")(r)
    theta = P + params["c"] * s
    amp = sympy.sqrt(eps)
    images = dict(zip(system.ctx.dependents, (amp * sympy.cos(theta), amp * sympy.sin(theta))))
    letter = {system.time.name: s, system.space.name: r}
    local = dict(params, **{system.time.name: s, system.space.name: r})
    jets = (g for _, eq in system.equations for g in collect_refs(eq) if isinstance(g, JetVar))
    order = max(g.total_order for g in jets)
    for dep, image in images.items():
        local[dep.name] = image
        for k in range(1, order + 1):
            for word in combinations_with_replacement(sorted(letter), k):
                local[f"{dep.name}_{''.join(word)}"] = sympy.diff(image, *(letter[ch] for ch in word))
    for k in range(1, 4):
        local["p_" + "r" * k] = sympy.diff(P, r, k)

    def parse(e):
        return parse_expr(
            render(e), local_dict=local, transformations=standard_transformations + (convert_xor,)
        )

    g1, g2 = (parse(eq) for _, eq in system.equations)
    sin_t, cos_t = sympy.sin(theta), sympy.cos(theta)
    want = {
        "phase_balance": (g1 * sin_t + g2 * cos_t) / amp,
        "curvature": (g2 * sin_t - g1 * cos_t) / amp,
    }
    for factor, oracle in want.items():
        oracle = sympy.expand(sympy.trigsimp(sympy.expand(oracle)))
        assert not oracle.has(sympy.sin, sympy.cos), factor
        assert s not in oracle.free_symbols, factor
        derived = parse(getattr(ode, factor).to_expr())
        assert sympy.expand(oracle - derived) == 0, factor

