from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nlseverify.exprs import (
    Const,
    Context,
    FuncApp,
    Pow,
    Sum,
    Var,
    add,
    const,
    eval_numeric,
    func,
    mul,
    neg,
    pow_,
    render,
    var,
)
from nlseverify.parse import ParseError, parse
from nlseverify.problem import load_problem

PARSED = Path(__file__).resolve().parent / "golden" / "parsed.tsv"


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
    "u - (v + t)",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_render_round_trip(ctx, text):
    e = parse(text, ctx)
    assert parse(render(e), ctx) == e


def random_tree(rng: random.Random, gens, depth: int):
    """Seeded tree over the whole grammar: n-ary sums and products,
    negation, quotients, negative powers, functions, rational constants."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        return var(rng.choice(gens))
    a = random_tree(rng, gens, depth - 1)
    rest = [random_tree(rng, gens, depth - 1) for _ in range(rng.randint(1, 3))]
    roll = rng.random()
    if roll < 0.3:
        return add(a, *rest)
    if roll < 0.55:
        return mul(a, *rest)
    if roll < 0.65:
        return neg(a)
    if roll < 0.75:
        return a if rest[0] == const(0) else mul(a, pow_(rest[0], -1))
    if roll < 0.88:
        exponent = rng.choice([-3, -2, -1, 2, 3])
        return a if a == const(0) and exponent < 0 else pow_(a, exponent)
    fn = rng.choice(["sin", "cos", "sqrt", "arctan"])
    return a if fn == "sqrt" and isinstance(a, Const) and a.value < 0 else func(fn, a)


def test_seeded_render_round_trip(ctx):
    gens = [ctx[n] for n in ("t", "x", "u", "v", "beta", "gamma", "delta")]
    gens += [ctx.jet("u", "x"), ctx.jet("v", "xt"), ctx.jet("u", "xx")]
    for seed in range(600):
        e = random_tree(random.Random(seed), gens, 4)
        assert parse(render(e), ctx) == e, (seed, render(e))


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


BAD = {  # text -> (message, position)
    "u +": ("unexpected ''", 3),
    "(u": ("expected ')'", 2),
    "u^(2": ("expected ')'", 4),
    "u)": ("unexpected trailing ')'", 1),
    "w": ("unknown identifier 'w'", 0),
    "x_t": ("cannot take derivatives of independent variable 'x'", 0),
    "u_q": ("bad derivative suffix 'q': 'q' is not an independent variable", 0),
    "u_xxxxx": ("jet order 5 exceeds maximum 4", 0),
    "sin u": ("expected '(' after function name 'sin'", 0),
    "u^v": ("exponent must be an integer literal", 2),
    "2^u": ("exponent must be an integer literal", 2),
    "u ? v": ("unexpected character '?'", 2),
    "": ("unexpected ''", 0),
    "u/0": ("division by zero", 1),
    "0^-1": ("zero raised to a negative power", 1),
}


@pytest.mark.parametrize("text", BAD)
def test_bad_input_raises_parse_error(ctx, text):
    with pytest.raises(ParseError) as info:
        parse(text, ctx)
    assert (info.value.message, info.value.pos) == BAD[text]
    assert str(info.value).endswith(f"(column {BAD[text][1] + 1})")


def test_error_reports_column(ctx):
    with pytest.raises(ParseError) as info:
        parse("u + )", ctx)
    assert info.value.pos == 4
    assert "(column 5)" in str(info.value)


def dump(e) -> str:
    """The tree's node classes nested, constants as Fractions."""
    if isinstance(e, Const):
        return f"Const({e.value})"
    if isinstance(e, Var):
        return f"Var({e.ref.name})"
    if isinstance(e, Pow):
        return f"Pow({dump(e.base)},{e.exponent})"
    if isinstance(e, FuncApp):
        return f"FuncApp({e.fn},{dump(e.arg)})"
    kids = e.terms if isinstance(e, Sum) else e.factors
    return f"{type(e).__name__}({','.join(dump(k) for k in kids)})"


def parsed_rows() -> str:
    """One row per expression entry of the bundled file, plain and printed."""
    rows = []
    for mode in ("plain", "printed"):
        p = load_problem(printed=mode == "printed")
        time = p.system.time.name
        entries = list(p.system.equations)
        entries += [(f"{d.name}_{time}", e) for d, e in p.system.evolution.items()]
        for pair in p.multipliers:
            entries += [(f"{pair.label}_q{i}", q) for i, q in enumerate(pair.q, 1)]
        for vec in p.conserved:
            entries += [(f"{vec.label}_density", vec.density), (f"{vec.label}_flux", vec.flux)]
        for fieldv in p.symmetries:
            entries += [(f"{fieldv.label}_xi_{k}", e) for k, e in fieldv.xi.items()]
            entries += [(f"{fieldv.label}_eta_{k}", e) for k, e in fieldv.eta.items()]
        for cand in p.candidates:
            entries += [(f"{cand.label}:{k}", e) for k, e in cand.constraints]
            entries += [(f"{cand.label}:{k}", e) for k, e in cand.fields.items()]
        rows += [f"{mode}\t{key}\t{dump(e)}\n" for key, e in entries]
    return "".join(rows)


def test_bundled_entries_parse_to_the_pinned_trees():
    """Regenerate with ``python tests/test_parser.py --write``."""
    assert parsed_rows() == PARSED.read_text(encoding="utf-8")


def test_jet_order_cap_tracks_context():
    loose = Context(("t", "x"), ("u",), max_order=6)
    assert parse("u_xxxxx", loose).ref.total_order == 5
    with pytest.raises(ParseError):
        parse("u_xxxxxxx", loose)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    PARSED.write_text(parsed_rows(), encoding="utf-8")
