from __future__ import annotations

import contextlib
import io
import random
from itertools import combinations_with_replacement

import pytest

import nlseverify.cli
import nlseverify.jets
from conftest import random_expr
from nlseverify.exprs import Context, JetOrderError, JetVar, add, collect_refs, render, var
from nlseverify.jets import (
    PDESystem,
    VectorField,
    apply_field,
    euler_operator,
    iterated_derivative,
    jet_table,
    prolong,
    substitute_forms,
    total_derivative,
)
from nlseverify.normal import accumulate, as_form, mul_forms, normalize


@pytest.fixture(scope="module")
def ctx6():
    return Context(("t", "x"), ("u", "v"), ("beta", "delta"), max_order=6)


@pytest.fixture(scope="module")
def oracle(ctx6):
    return pytest.importorskip("sympy_jets").SympyJets(ctx6)


def corpus(ctx, names, seed, count, depth=3):
    rng = random.Random(seed)
    gens = [ctx[n] if "_" not in n else ctx.jet(n.split("_")[0], n.split("_")[1]) for n in names]
    return [random_expr(rng, gens, depth) for _ in range(count)]


BASE_NAMES = ("t", "x", "u", "v", "beta", "u_x", "u_t", "v_x", "u_tx")


def test_total_derivatives_commute(ctx6):
    t, x = ctx6["t"], ctx6["x"]
    for e in corpus(ctx6, BASE_NAMES, seed=101, count=15):
        f = as_form(e)
        tx = total_derivative(total_derivative(f, t, ctx6), x, ctx6)
        xt = total_derivative(total_derivative(f, x, ctx6), t, ctx6)
        assert normalize(tx) == normalize(xt)


def test_leibniz_rule(ctx6):
    x = ctx6["x"]
    forms = [as_form(e) for e in corpus(ctx6, BASE_NAMES, seed=202, count=16)]
    for f, g in zip(forms[::2], forms[1::2]):
        lhs = total_derivative(mul_forms(f, g), x, ctx6)
        rhs = accumulate(
            mul_forms(total_derivative(f, x, ctx6), g),
            mul_forms(f, total_derivative(g, x, ctx6)),
        )
        assert normalize(lhs) == normalize(rhs)


def test_euler_operator_annihilates_divergences(ctx6, oracle):
    """Divergences taken by SymPy, so the Euler operator's own total
    derivative is not the reference."""
    names = ("u", "v", "u_x", "u_t", "v_x", "u_xx", "beta")
    exprs = corpus(ctx6, names, seed=303, count=20)
    for a, b in zip(exprs[::2], exprs[1::2]):
        div = add(oracle.total_derivative(a, "t"), oracle.total_derivative(b, "x"))
        for dep in ("u", "v"):
            assert normalize(euler_operator(as_form(div), ctx6[dep], ctx6)).is_zero


def test_euler_operator_known_gradients(ctx6):
    def euler(text, dep):
        return normalize(euler_operator(as_form(ctx6.parse(text)), ctx6[dep], ctx6))

    assert euler("u_x^2/2", "u") == normalize(ctx6.parse("-u_xx"))
    assert euler("u*v_t", "v") == normalize(ctx6.parse("-u_t"))
    assert euler("u*v_t", "u") == normalize(ctx6.parse("v_t"))


def test_iterated_derivative_matches_composition(ctx6, oracle):
    e = ctx6.parse("u^2*v_x + beta*t*u")
    joint = iterated_derivative(as_form(e), "tx", ctx6)
    assert normalize(oracle.total_derivative(e, "xt")) == normalize(joint)


def test_substitute_jets_derives_each_occurring_jet_once(ctx6):
    """A substituted dependent carries its jets: u_J becomes the derivative
    of u's image along J; shared prefixes and repeats are derived once."""
    calls = []

    def derive(f, letter):
        calls.append(letter)
        return total_derivative(f, ctx6[letter], ctx6)

    trees = [ctx6.parse("u_xx*v + u"), ctx6.parse("u_xxx - u_x + u_tx")]
    forms = [as_form(e) for e in trees]
    image = {ctx6["u"]: as_form(ctx6.parse("t*x^3 + beta*x"))}
    table = jet_table(ctx6, image, map(collect_refs, trees), derive)
    got = [normalize(substitute_forms(f, table)) for f in forms]
    assert got[0] == normalize(ctx6.parse("6*t*x*v + t*x^3 + beta*x"))
    assert got[1] == normalize(ctx6.parse("6*t - 3*t*x^2 - beta + 3*x^2"))
    # u_t, u_tx, u_x, u_xx, u_xxx: one derivative each
    assert sorted(calls) == ["t", "x", "x", "x", "x"]
    # every jet, u_t (made as the parent of u_tx) included, is the context's own
    jets = [g for g in table if isinstance(g, JetVar)]
    assert len(jets) == 5 and all(g is ctx6.jet(g.dep, g.suffix) for g in jets)


def test_substitute_jets_is_simultaneous(ctx6):
    swap = {ctx6["u"]: as_form(ctx6.parse("v")), ctx6["v"]: as_form(ctx6.parse("u"))}

    def derive(f, letter):
        return total_derivative(f, ctx6[letter], ctx6)

    tree = ctx6.parse("u_x*v_tt + u")
    form = as_form(tree)
    got = substitute_forms(form, jet_table(ctx6, swap, [collect_refs(tree)], derive))
    assert normalize(got) == normalize(ctx6.parse("v_x*u_tt + v"))


def test_prolongation_classic_coefficients(problem):
    ctx = problem.ctx
    u, x = ctx["u"], ctx["x"]
    scaling = VectorField("scale-x", {"x": var(x)}, {})
    prol = prolong(scaling, ctx)

    def coefficient(p, word):
        return normalize(p.zeta[ctx.jet("u", word)])

    assert coefficient(prol, "x") == normalize(ctx.parse("-u_x"))
    assert coefficient(prol, "xx") == normalize(ctx.parse("-2*u_xx"))

    vertical = VectorField("vert-u", {}, {"u": var(u)})
    pv = prolong(vertical, ctx)
    assert coefficient(pv, "x") == normalize(ctx.parse("u_x"))
    assert coefficient(pv, "tx") == normalize(ctx.parse("u_tx"))


def test_prolongation_derives_a_coefficient_when_first_asked(problem, monkeypatch):
    """A prolonged field starts from its dependents' eta; acting on g1
    derives the jets of g1 and their prefixes, and acting again derives
    nothing."""
    ctx, system = problem.ctx, problem.system
    prol = prolong(problem.symmetries[4], ctx)
    assert list(prol.zeta) == list(ctx.dependents)
    g1 = system.equation_forms[0]
    first = normalize(apply_field(prol, g1))
    jets = {g for g in collect_refs(system.equations[0][1]) if isinstance(g, JetVar)}
    prefixes = {ctx.jet(g.dep, g.suffix[:k]) for g in jets for k in range(1, g.total_order)}
    assert set(prol.zeta) == {*ctx.dependents, *jets, *prefixes}
    assert {g.name for g in prefixes - jets} == {"v_x"}

    derived = []
    monkeypatch.setattr(nlseverify.jets, "iterated_derivative", lambda *a: derived.append(a))
    assert normalize(apply_field(prol, g1)) == first
    assert derived == []


def test_prolongation_matches_the_characteristic(problem):
    """Olver, Thm. 2.36: zeta_J = D_J Q + sum_k xi^k u_{J,k}, with the
    characteristic Q = eta - sum_k xi^k u_k, for every jet up to order 3."""
    ctx = problem.ctx
    assert ctx.max_order == 4
    letters = [i.name for i in ctx.independents]
    words = ["".join(w) for n in (1, 2, 3) for w in combinations_with_replacement(letters, n)]
    assert len(words) == 9
    for fieldv in problem.symmetries:
        prol = prolong(fieldv, ctx)
        xi = {i: fieldv.forms.get(i, {}) for i in letters}
        for dep in ctx.dependents:
            q = dict(fieldv.forms.get(dep.name, {}))
            for i in letters:
                accumulate(q, mul_forms(xi[i], as_form(var(ctx.jet(dep, i)))), -1)
            for word in words:
                want = iterated_derivative(q, word, ctx)
                for i in letters:
                    accumulate(want, mul_forms(xi[i], as_form(var(ctx.jet(dep, word + i)))))
                got = normalize(prol.zeta[ctx.jet(dep, word)])
                assert got == normalize(want), (fieldv.label, dep.name, word)


def test_associate_prolongs_each_symmetry_once(problem, monkeypatch):
    calls = []

    def counting(fieldv, ctx):
        calls.append(fieldv.label)
        return prolong(fieldv, ctx)

    monkeypatch.setattr(nlseverify.cli, "prolong", counting)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert nlseverify.cli.main(["associate"]) == 0
    assert calls == [f.label for f in problem.symmetries]
    assert len(calls) == 5


def test_prolongation_is_linear(problem):
    ctx = problem.ctx
    x4, x5 = problem.symmetries[3], problem.symmetries[4]
    xi = {
        n.name: add(x4.xi.get(n.name, 0), x5.xi.get(n.name, 0)) for n in ctx.independents
    }
    eta = {
        n.name: add(x4.eta.get(n.name, 0), x5.eta.get(n.name, 0)) for n in ctx.dependents
    }
    combined = VectorField("x4-plus-x5", xi, eta)
    p4 = prolong(x4, ctx)
    p5 = prolong(x5, ctx)
    pc = prolong(combined, ctx)
    names = ("t", "x", "u", "v", "beta", "u_x", "v_x", "u_xx", "v_tx")
    for e in corpus(ctx, names, seed=404, count=10, depth=2):
        f = as_form(e)
        split = accumulate(apply_field(p4, f), apply_field(p5, f))
        assert normalize(apply_field(pc, f)) == normalize(split)


def test_prolongation_requires_headroom(problem):
    """The context's cap is prolongation's only bound: with eta_u = u_x,
    zeta[u_J] holds u_{J,x}, so the coefficient of a jet at the cap needs
    a jet past it."""
    ctx = problem.ctx
    assert ctx.max_order == 4
    prol = prolong(VectorField("shift-u", {}, {"u": ctx.parse("u_x")}), ctx)
    assert normalize(prol.zeta[ctx.jet("u", "xxx")]) == normalize(ctx.parse("u_xxxx"))
    with pytest.raises(JetOrderError, match="jet order 5 exceeds maximum 4"):
        prol.zeta[ctx.jet("u", "xxxx")]


def test_reduce_eliminates_time_jets(system):
    from nlseverify.exprs import JetVar, collect_refs

    ctx = system.ctx
    out = normalize(system.reduce(as_form(ctx.parse("u_tt + v_tx + u_t*v"))))
    assert all(
        not (isinstance(g, JetVar) and g.order_in("t") > 0)
        for g in collect_refs(out.to_expr())
    )
    assert not out.is_zero
    _, g1 = system.equations[0]
    assert normalize(system.reduce(as_form(g1))).is_zero


@pytest.mark.parametrize(
    "text, reduced",
    [("sin(u_t)", "-sin(beta*u_x)"),
     ("cos(2*u_t) + u*sin(u_tx)", "cos(2*beta*u_x) - u*sin(beta*u_xx)")],
)
def test_reduce_rebuilds_the_trig_atoms_it_substitutes_into(text, reduced):
    ctx = Context(("t", "x"), ("u",), ("beta",))
    eqs = [("g1", ctx.parse("u_t + beta*u_x"))]
    system = PDESystem.build(ctx, eqs, {"u": ctx.parse("-beta*u_x")})
    assert normalize(system.reduce(as_form(ctx.parse(text)))) == normalize(ctx.parse(reduced))


def test_system_build_rejects_inconsistent_evolution():
    ctx = Context(("t", "x"), ("u",), ("beta",))
    eqs = [("g1", ctx.parse("u_t + beta*u_x"))]
    with pytest.raises(ValueError):
        PDESystem.build(ctx, eqs, {"u": ctx.parse("u_x")})
    with pytest.raises(ValueError):
        PDESystem.build(ctx, eqs, {"u": ctx.parse("u_t")})
    good = PDESystem.build(ctx, eqs, {"u": ctx.parse("-beta*u_x")})
    assert render(good.evolution[ctx["u"]]) == "-beta*u_x"


def test_vector_field_validation(problem):
    ctx = problem.ctx
    with pytest.raises(ValueError):
        VectorField("bad", {"t": ctx.parse("u_x")}, {}).validate(ctx)
    with pytest.raises(ValueError):
        VectorField("bad", {}, {"u": ctx.parse("u_xx")}).validate(ctx)
    with pytest.raises(ValueError):
        VectorField("bad", {}, {"q": ctx.parse("u")}).validate(ctx)
