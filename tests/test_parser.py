from __future__ import annotations

from fractions import Fraction

import pytest

from nlseverify.exprs import Const, Context, FuncApp, eval_numeric
from nlseverify.parse import ParseError, parse


@pytest.fixture()
def ctx():
    return Context(("t", "x"), ("u", "v"), ("beta", "gamma", "delta"))


ROUND_TRIP = [
    "u_t + beta*u_x - gamma*v_xx + delta*v*(u^2 + v^2)",
    "(x - beta*t)*u + 2*gamma*t*v_x",
    "u^-2",
    "-u_tx",
    "sin(u)^2 + cos(u)^2",
    "sqrt(u^2 + v^2)",
    "arctan(v*u^-1) - t",
    "3/2*u - 1/2",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_render_round_trip(ctx, text):
    from nlseverify.exprs import render

    e = parse(text, ctx)
    assert parse(render(e), ctx) == e


def test_mixed_suffixes_are_canonical(ctx):
    assert parse("u_xt", ctx) == parse("u_tx", ctx)
    jv = parse("u_xt", ctx).ref
    assert jv.name == "u_tx"
    assert jv.suffix == "tx"


def test_precedence(ctx):
    def ev(text, **vals):
        bind = {ctx[k]: v for k, v in vals.items()}
        return eval_numeric(parse(text, ctx), bind)

    assert ev("beta - gamma - beta", beta=5.0, gamma=2.0) == -2.0
    assert ev("2*u^2", u=3.0) == 18.0
    assert ev("(2*u)^2", u=3.0) == 36.0
    assert ev("-u^2", u=3.0) == -9.0
    assert ev("u^-2", u=2.0) == 0.25
    assert ev("u^(-2)", u=2.0) == 0.25
    assert ev("6/4*u", u=1.0) == 1.5


def test_integer_quotients_fold_exactly(ctx):
    e = parse("3/2", ctx)
    assert isinstance(e, Const)
    assert e.value == Fraction(3, 2)


def test_functions_parse_to_func_nodes(ctx):
    e = parse("sqrt(u^2 + v^2)", ctx)
    assert isinstance(e, FuncApp)
    assert e.fn == "sqrt"


BAD = [
    "u +",
    "(u",
    "u)",
    "w",
    "x_t",
    "u_q",
    "u_xxxxx",
    "sin u",
    "u^v",
    "2^u",
    "u ? v",
    "",
    "u/0",
    "0^-1",
]


@pytest.mark.parametrize("text", BAD)
def test_bad_input_raises_parse_error(ctx, text):
    with pytest.raises(ParseError):
        parse(text, ctx)


def test_error_reports_column(ctx):
    with pytest.raises(ParseError) as info:
        parse("u + )", ctx)
    assert info.value.pos == 4
    assert "(column 5)" in str(info.value)


def test_jet_order_cap_tracks_context():
    loose = Context(("t", "x"), ("u",), max_order=6)
    assert parse("u_xxxxx", loose).ref.total_order == 5
    with pytest.raises(ParseError):
        parse("u_xxxxxxx", loose)
