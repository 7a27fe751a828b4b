from __future__ import annotations

import numpy as np
import pytest

from nlseverify.exprs import (
    Context,
    EvalDomainError,
    UnboundGeneratorError,
    collect_refs,
    eval_numeric,
    func,
    jet_order,
    pow_,
    render,
    substitute,
    var,
)
from nlseverify.jets import explicit_partial
from nlseverify.normal import as_form, normalize


@pytest.fixture()
def ctx():
    return Context(("t", "x"), ("u", "v"), ("beta",))


def partial(e, g):
    return normalize(explicit_partial(as_form(e), g))


def test_polynomial_partials(ctx):
    e = ctx.parse("u^3*v + beta*u_x^2")
    du = partial(e, ctx["u"])
    assert du == normalize(ctx.parse("3*u^2*v"))
    dux = partial(e, ctx.jet("u", "x"))
    assert dux == normalize(ctx.parse("2*beta*u_x"))
    assert normalize(partial(e, ctx["v"]).to_expr()) == normalize(ctx.parse("u^3"))


def test_trig_chain_rule(ctx):
    e = ctx.parse("sin(u^2)")
    expected = ctx.parse("2*u*cos(u^2)")
    assert partial(e, ctx["u"]) == normalize(expected)


def test_substitution_is_simultaneous(ctx):
    u, v = ctx["u"], ctx["v"]
    e = ctx.parse("u + 2*v")
    # Replacements are not substituted into again, so a swap is well defined.
    swapped = substitute(e, {u: var(v), v: var(u)})
    assert eval_numeric(swapped, {u: 2.0, v: 3.0}) == 7.0


def test_eval_domain_guards(ctx):
    u = ctx["u"]
    with pytest.raises(EvalDomainError):
        eval_numeric(func("sqrt", var(u)), {u: -1.0})
    with pytest.raises(EvalDomainError):
        eval_numeric(pow_(var(u), -1), {u: 0.0})
    with pytest.raises(UnboundGeneratorError):
        eval_numeric(var(u), {})


def test_eval_numeric_broadcasts_arrays(ctx):
    u, v = ctx["u"], ctx["v"]
    e = ctx.parse("sqrt(u)*cos(v) + u^-2 - arctan(v)*3/2")
    us = np.array([0.5, 1.0, 2.0])
    vs = np.array([-1.0, 0.0, 3.0])
    got = eval_numeric(e, {u: us, v: vs})
    assert got.shape == (3,)
    for i in range(3):
        scalar = eval_numeric(e, {u: us[i], v: vs[i]})
        assert type(scalar) is float
        assert abs(got[i] - scalar) <= 1e-15 * max(1.0, abs(scalar))
    # A binding-free term broadcasts against the array terms.
    assert np.array_equal(eval_numeric(ctx.parse("u + 1"), {u: us}), us + 1.0)


def test_eval_domain_guards_are_elementwise(ctx):
    u = ctx["u"]
    with pytest.raises(EvalDomainError, match="sqrt of negative value -2.0"):
        eval_numeric(func("sqrt", var(u)), {u: np.array([1.0, -2.0, 3.0])})
    with pytest.raises(EvalDomainError, match="zero base"):
        eval_numeric(pow_(var(u), -1), {u: np.array([1.0, 0.0])})
    with pytest.raises(EvalDomainError, match="overflow"):
        eval_numeric(pow_(var(u), 400), {u: 1e10})
    with np.errstate(over="ignore"):
        assert np.isinf(eval_numeric(pow_(var(u), 400), {u: np.array([1e10])})).all()


def test_collect_refs_and_jet_order(ctx):
    e = ctx.parse("beta*u_tx + v*x")
    names = {g.name for g in collect_refs(e)}
    assert names == {"beta", "u_tx", "v", "x"}
    assert jet_order(e) == 2
    assert jet_order(ctx.parse("u + v")) == 0


def test_negative_power_renders_with_its_sign(ctx):
    assert render(pow_(var(ctx["u"]), -2)) == "u^-2"


def test_context_declaration_errors():
    with pytest.raises(ValueError):
        Context(("t", "x"), ("u", "u"))
    with pytest.raises(ValueError):
        Context(("tau", "x"), ("u",))
    with pytest.raises(ValueError):
        Context(("t", "x"), ("sin",))
    with pytest.raises(ValueError):
        Context(("t", "x"), ("u",), max_order=0)


def test_jet_helpers(ctx):
    jv = ctx.jet("u", "xtx")
    assert jv.name == "u_txx"
    assert jv.order_in("x") == 2 and jv.order_in("t") == 1
    bumped = ctx.bump(jv, ctx["x"])
    assert bumped.name == "u_txxx"
    from nlseverify.exprs import JetOrderError

    with pytest.raises(JetOrderError):
        ctx.bump(bumped, ctx["x"])
    with pytest.raises(ValueError):
        ctx.jet("beta", "x")
