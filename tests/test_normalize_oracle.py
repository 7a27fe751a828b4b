"""SymPy as an independent oracle for ``normalize``.

Random trees over jets, parameters and rational constants, with sin/cos
of small integer combinations of one or two generators and powers up to
3.  For each tree:

* the normal form equals the tree as a function: SymPy rewrites their
  difference in exponentials and expands it to 0;
* the normal form is a fixed point: rendering and re-parsing it gives the
  same form;
* the form is canonical: adding a multiple of ``sin(A)^2 + cos(A)^2 - 1``
  leaves it unchanged.

A second family holds ``sqrt(eps)`` and ``sqrt(beta)`` to powers from -3
to 4 beside plain and jet variables: the form equals the tree for SymPy,
each root survives to the power 1 at most, and adding a multiple of
``sqrt(eps)^2 - eps`` leaves the form unchanged.

SymPy is a test-only dependency.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlseverify.exprs import Context, add, const, func, mul, neg, pow_, render
from nlseverify.normal import normalize

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    parse_expr,
    standard_transformations,
)

CTX = Context(("t", "x"), ("u", "v"), ("beta", "gamma"))
NAMES = ("u", "v", "u_x", "v_tx", "beta", "gamma")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}

generators = st.sampled_from([CTX.parse(name) for name in NAMES])
coefficients = st.integers(-3, 3)
constants = st.builds(lambda p, q: const(Fraction(p, q)), st.integers(-4, 4), st.integers(1, 3))
arguments = st.builds(
    lambda a, g, b, h: add(mul(a, g), mul(b, h)), coefficients, generators, coefficients, generators
)
trig = st.builds(func, st.sampled_from(["sin", "cos"]), arguments)
trees = st.recursive(
    generators | constants | trig,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: mul(*xs)),
        st.builds(pow_, kids, st.integers(2, 3)),
    ),
    max_leaves=6,
)


ROOT_CTX = Context(("t", "x"), ("u", "v"), ("beta", "eps"))
ROOT_NAMES = ("u", "v", "u_x", "beta", "eps", "sqrt(eps)", "sqrt(beta)")
ROOT_SYMBOLS = {name: sympy.Symbol(name) for name in ("u", "v", "u_x", "beta", "eps")}

powers = st.builds(
    pow_, st.sampled_from([ROOT_CTX.parse(name) for name in ROOT_NAMES]), st.integers(-3, 4)
)
root_trees = st.recursive(
    powers | constants,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: add(*xs)),
        st.lists(kids, min_size=2, max_size=3).map(lambda xs: mul(*xs)),
    ),
    max_leaves=8,
)


def to_sympy(e, symbols=SYMBOLS):
    return parse_expr(
        render(e), local_dict=symbols, transformations=standard_transformations + (convert_xor,)
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(e=trees, w=trees, a=arguments)
def test_normalize_agrees_with_sympy(e, w, a):
    nf = normalize(e)
    assert sympy.expand((to_sympy(nf.to_expr()) - to_sympy(e)).rewrite(sympy.exp)) == 0
    assert normalize(CTX.parse(render(nf.to_expr()))) == nf
    pythagoras = add(pow_(func("sin", a), 2), pow_(func("cos", a), 2), const(-1))
    assert normalize(add(e, mul(w, pythagoras))) == nf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(e=root_trees, w=root_trees)
def test_square_roots_agree_with_sympy(e, w):
    nf = normalize(e)
    assert sympy.expand(to_sympy(nf.to_expr(), ROOT_SYMBOLS) - to_sympy(e, ROOT_SYMBOLS)) == 0
    assert normalize(ROOT_CTX.parse(render(nf.to_expr()))) == nf
    roots = [k for m, _ in nf.terms for g, k in m if getattr(g, "fn", None) == "sqrt"]
    assert all(k == 1 for k in roots)
    square = add(pow_(ROOT_CTX.parse("sqrt(eps)"), 2), neg(ROOT_CTX.parse("eps")))
    assert normalize(add(e, mul(w, square))) == nf
