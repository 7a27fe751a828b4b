from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlseverify.exprs import Context, Pow, Prod, Sum, add, const, func, mul, pow_, render, var
from nlseverify.jets import form_generators, substitute_forms
from nlseverify.normal import (
    MAX_PRODUCT_PAIRS,
    Atom,
    NormalizationError,
    accumulate,
    as_form,
    mono_mul,
    mul_forms,
    normalize,
    pow_form,
    trig_form,
)


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


# ---------------------------------------------------------------------------
# A one-term form is worked as a monomial; each short cut must give what
# the general route gives: the same terms, in the same order, with
# coefficients of the same value and type.

CTX = Context(("t", "x"), ("u", "v"), ("beta", "eps"))
U, V, X, EPS = (CTX[name] for name in ("u", "v", "x", "eps"))
U_X = CTX.jet(U, "x")
SIN_U, COS_U = (Atom(fn, normalize(var(U))) for fn in ("sin", "cos"))
SQRT_EPS = Atom("sqrt", normalize(var(EPS)))
SUBSTITUTED = (U, V, U_X)  # the generators a substitution gives images
MOVED = (*SUBSTITUTED, SIN_U, COS_U)  # and those it changes
GENERATORS = (*MOVED, X, EPS, SQRT_EPS)

COEFFICIENTS = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
EXPONENTS = st.integers(-3, 3).filter(bool)


@st.composite
def monomials(draw, positive: tuple = ()):
    """Up to three generators with nonzero exponents, those in ``positive``
    raised to 1..3 only."""
    gens = draw(st.lists(st.sampled_from(GENERATORS), max_size=3, unique=True))
    return frozenset((g, draw(st.integers(1, 3) if g in positive else EXPONENTS)) for g in gens)


def forms(positive: tuple = ()):
    """Working forms of zero to four terms; coefficients may be zero."""
    return st.dictionaries(monomials(positive), COEFFICIENTS, max_size=4)


def exact(f) -> list:
    return [(m, c, type(c)) for m, c in f.items()]


def outcome(fn, *args):
    """The exact terms of ``fn(*args)``, or the text of its NormalizationError."""
    try:
        return exact(fn(*args))
    except NormalizationError as exc:
        return str(exc)


def mul_reference(a, b):
    """The general double loop of a product."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def pow_reference(f, n: int):
    """``f^n``, n >= 1, by repeated squaring with the general product."""
    out = {frozenset(): 1}
    while n:
        if n & 1:
            out = mul_reference(out, f)
        n >>= 1
        if n:
            f = mul_reference(f, f)
    return out


def substitute_reference(f, images):
    """Each generator's power multiplied in, one at a time, in the
    monomial's order; an unsubstituted one as its own monomial."""

    def power(g, k):
        if isinstance(g, Atom) and images.keys() & form_generators(g.arg.form()):
            arg = normalize(substitute_reference(g.arg.form(), images))
            return pow_reference(trig_form(g.fn, arg), k)
        return pow_reference(images[g], k) if g in images else {frozenset({(g, k)}): 1}

    out = {}
    for m, c in f.items():
        if c:
            term = {frozenset(): c}
            for g, k in m:
                term = mul_reference(term, power(g, k))
            accumulate(out, term)
    return out


def leaves():
    return st.one_of(
        st.sampled_from([var(g) for g in (U, V, X, U_X)]),
        COEFFICIENTS.map(const),
        st.sampled_from([func("sin", var(U)), func("cos", var(U)), func("sqrt", var(EPS))]),
    )


FACTORS = st.one_of(
    leaves(),
    st.tuples(leaves(), leaves()).map(Sum),
    st.builds(Pow, leaves(), st.integers(-2, 3).filter(bool)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(forms(), forms())
def test_products_equal_the_double_loop(a, b):
    assert exact(mul_forms(a, b)) == exact(mul_reference(a, b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(forms(), st.integers(1, 6))
def test_powers_equal_repeated_squaring(f, n):
    assert exact(pow_form(f, n)) == exact(pow_reference(f, n))
    assert pow_form(f, 0) == {frozenset(): 1}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(FACTORS, min_size=2, max_size=5))
def test_a_product_tree_equals_the_left_to_right_chain(factors):
    def chain():
        out = {frozenset(): 1}
        for f in factors:
            out = mul_reference(out, as_form(f))
        return out

    assert outcome(as_form, Prod(tuple(factors))) == outcome(chain)


def test_a_capped_product_names_the_sizes_of_the_plain_chain():
    """One-term factors fold aside, yet the cap sees the operands that the
    left-to-right chain multiplies: 1000 terms by 300."""
    u, v = var(U), var(V)
    sums = (Sum(tuple(pow_(g, k) for k in range(1, n + 1))) for g, n in ((u, 1000), (v, 300)))
    tree = Prod((u, next(sums), v, next(sums), const(2)))
    with pytest.raises(NormalizationError, match="^expanding a product of 1000 by 300 terms"):
        as_form(tree)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(forms(positive=MOVED), st.dictionaries(st.sampled_from(SUBSTITUTED), forms(), min_size=1))
def test_substitution_equals_per_generator_products(f, images):
    assert outcome(substitute_forms, f, images) == outcome(substitute_reference, f, images)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(forms())
def test_the_tree_of_a_normal_form_is_the_constructors_tree(f):
    nf = normalize(f)
    built = add(
        *(
            mul(const(c), *(pow_(g.node if isinstance(g, Atom) else var(g), e) for g, e in m))
            for m, c in nf.terms
        )
    )
    assert nf.to_expr() == built and render(nf.to_expr()) == render(built)
