from __future__ import annotations

import pytest

from nlseverify.exprs import Context, add, func, mul, render, var
from nlseverify.normal import MAX_PRODUCT_PAIRS, NormalizationError, normalize


@pytest.fixture()
def ctx():
    return Context(("t", "x"), ("u", "v"), ("beta", "eps"))


ZERO_IDENTITIES = [
    "sin(u)^2 + cos(u)^2 - 1",
    "sin(2*u) - 2*sin(u)*cos(u)",
    "cos(2*u) - cos(u)^2 + sin(u)^2",
    "cos(2*u) - 1 + 2*sin(u)^2",
    "sin(2*u + 2*v) - 2*sin(u + v)*cos(u + v)",
    "sin(-u) + sin(u)",
    "cos(-u) - cos(u)",
    "cos(v - u) - cos(u - v)",
    "sin(4*u) - 2*sin(2*u)*cos(2*u)",
    "u^-1*u - 1",
    "(2*u*v)^-2*4*u^2*v^2 - 1",
    "(u - v)*(u + v) - u^2 + v^2",
    "sqrt(eps)^3 - eps*sqrt(eps)",
    "1/sqrt(eps) - sqrt(eps)/eps",
    "sqrt(eps)^-4 - eps^-2",
    "sqrt(eps)^2*sqrt(beta)^2 - eps*beta",
]


@pytest.mark.parametrize("text", ZERO_IDENTITIES)
def test_zero_identities(ctx, text):
    assert normalize(ctx.parse(text)).is_zero


NONZERO = [
    "sin(u)^2 - cos(u)^2",
    "sin(2*u + v)",
    # Addition formulas for distinct arguments are outside the supported
    # fragment: the form is sound (zero implies identity) but only
    # complete for same-argument trigonometry.
    "sin(u + v) - sin(u)*cos(v) - cos(u)*sin(v)",
    "sqrt(eps) - sqrt(beta)",
]


@pytest.mark.parametrize("text", NONZERO)
def test_non_identities_stay_nonzero(ctx, text):
    assert not normalize(ctx.parse(text)).is_zero


def test_half_angle_needs_all_even_coefficients(ctx):
    # 2u + v cannot be halved, so the atom survives normalization.
    nf = normalize(ctx.parse("sin(2*u + v)"))
    assert not nf.is_zero
    assert "sin" in render(nf.to_expr())


def test_reciprocal_of_sum_rejected(ctx):
    with pytest.raises(NormalizationError):
        normalize(ctx.parse("(u + v)^-1"))
    # a negative sine power would leave this identity nonzero
    with pytest.raises(NormalizationError):
        normalize(ctx.parse("sin(u)^-1*(sin(u)^2 + cos(u)^2 - 1)"))


def test_expansion_is_bounded(ctx):
    # (u + v)^2^k: the squaring that builds it multiplies (2^(k-1) + 1)^2 term pairs
    fits = ctx.parse("(u + v)^512")
    assert len(normalize(fits).terms) == 513
    with pytest.raises(NormalizationError, match="^expanding a product of 513 by 513 terms"):
        normalize(ctx.parse("(u + v)^1024"))
    assert 257 * 257 <= MAX_PRODUCT_PAIRS < 513 * 513


def test_negative_cosine_powers_stay_canonical(ctx):
    assert normalize(ctx.parse("cos(u)^-3*(sin(u)^2 + cos(u)^2 - 1)")).is_zero
    assert normalize(ctx.parse("cos(u)^-1*sin(u)^2 - cos(u)^-1 + cos(u)")).is_zero


def test_sqrt_and_arctan_rejected(ctx):
    with pytest.raises(NormalizationError):
        normalize(func("sqrt", var(ctx["u"])))
    with pytest.raises(NormalizationError):
        normalize(ctx.parse("arctan(u)"))
    # only the square root of a single parameter is an atom
    for text in ("sqrt(2*eps)", "sqrt(2)", "sqrt(u_x)", "sqrt(x)", "sqrt(eps + 1)"):
        with pytest.raises(NormalizationError, match="sqrt is not polynomial"):
            normalize(ctx.parse(text))


def test_canonical_is_order_independent(ctx):
    u, v, beta = (var(ctx[n]) for n in ("u", "v", "beta"))
    left = add(mul(u, v), mul(beta, u), v)
    right = add(v, mul(u, beta), mul(v, u))
    assert render(normalize(left).to_expr()) == render(normalize(right).to_expr())
    assert normalize(left) == normalize(right)


def test_graded_ordering_in_rendered_form(ctx):
    nf = normalize(ctx.parse("v + u + u^2"))
    # Graded order, later declarations first within a degree block.
    assert render(nf.to_expr()) == "u^2 + v + u"


def test_constant_value(ctx):
    """A constant form is one term with the empty monomial; zero has none."""
    assert normalize(ctx.parse("3/2 + 1/2")).terms == (((), 2),)
    assert len(normalize(ctx.parse("u + 1")).terms) == 2
    assert normalize(ctx.parse("u - u")).terms == ()


def test_square_root_of_a_parameter_is_an_atom(ctx):
    nf = normalize(ctx.parse("beta*sqrt(eps)^5*u"))
    assert render(nf.to_expr()) == "u*beta*eps^2*sqrt(eps)"


def test_trig_atoms_survive_round_trip(ctx):
    e = ctx.parse("beta*sin(u + v)^2*cos(2*t)")
    assert normalize(normalize(e).to_expr()) == normalize(e)


def test_hash_is_kept_and_equality_unchanged(ctx):
    """A normal form hashes its fields once, and a trig atom is interned,
    so it hashes by identity; equal forms built apart stay equal, hash
    alike and find each other in a dict."""
    text = "sin(u + 2*v)*cos(u_x) + beta*sin(u + 2*v)^3"
    a, b = normalize(ctx.parse(text)), normalize(ctx.parse(text))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    atom = next(g for m, _ in a.terms for g, _ in m if hasattr(g, "arg"))
    twin = next(g for m, _ in b.terms for g, _ in m if hasattr(g, "arg"))
    assert vars(a)["_hash"] == hash(a) and hash(atom) == object.__hash__(atom)
    assert twin is atom and type(atom)(atom.fn, atom.arg) is atom
    assert a != normalize(ctx.parse("sin(u + 2*v)*cos(u_x)"))
