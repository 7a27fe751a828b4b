"""The fraction-free route of the conserved-vector predicates.

``divergence_match`` and ``association_residual`` scale the conserved
vector by the least common denominator of its coefficients
(``normal.integral``), run the jet calculus on int coefficients and
divide once in ``normalize``.  Their normal forms must equal, term by
term and coefficient type by coefficient type, what the plain
``Fraction`` route below computes: on the bundled vectors, on rational
rescalings of them, and on two edited problem files.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlseverify.exprs import const, mul
from nlseverify.jets import (
    ConservedVector,
    apply_field,
    association_residual,
    divergence_match,
    iterated_derivative,
    prolong,
)
from nlseverify.normal import accumulate, integral, mul_forms, normalize
from nlseverify.problem import load_problem, load_problem_text
from test_reduce_variants import renamed_dependents, variant


def fraction_divergence(system, pair, vec):
    """``divergence_match`` on the vector's own Fraction coefficients."""
    (density, flux), ctx = vec.forms, system.ctx
    out = iterated_derivative(density, system.time.name, ctx)
    accumulate(out, iterated_derivative(flux, system.space.name, ctx))
    return normalize(accumulate(out, pair.combination(system), -1))


def fraction_association(system, prol, vec):
    """``association_residual`` on the vector's own Fraction coefficients."""
    t, x = system.time.name, system.space.name
    components = {t: vec.forms[0], x: vec.forms[1]}
    dxi = prol.dxi
    trace = accumulate(dict(dxi[t, t]), dxi[x, x])
    out = {}
    for i, t_i in components.items():
        comp = accumulate(apply_field(prol, t_i), mul_forms(t_i, trace))
        for k, t_k in components.items():
            accumulate(comp, mul_forms(t_k, dxi[k, i]), -1)
        out[i] = normalize(system.reduce(comp))
    return out


def typed(nf):
    """The terms of a normal form with each coefficient's type beside it."""
    return [(m, c, type(c)) for m, c in nf.terms]


def assert_routes_agree(problem, vectors):
    system = problem.system
    for pair in problem.multipliers:
        for vec in vectors:
            assert typed(divergence_match(system, pair, vec)) == typed(
                fraction_divergence(system, pair, vec)
            ), (pair.label, vec.label)
    for fieldv in problem.symmetries:
        prol = prolong(fieldv, problem.ctx)
        for vec in vectors:
            got = association_residual(system, prol, vec)
            want = fraction_association(system, prol, vec)
            assert got.keys() == want.keys()
            for i in got:
                assert typed(got[i]) == typed(want[i]), (fieldv.label, vec.label, i)


BUNDLED = load_problem()


def test_bundled_vectors_have_fractional_coefficients():
    """Every bundled density and flux is divided by 2 or 4, so the scaled
    route runs on every one of them."""
    for vec in BUNDLED.conserved:
        d, *scaled = integral(*vec.forms)
        assert d in (2, 4), vec.label
        assert all(type(c) is int for f in scaled for c in f.values())


def test_bundled_routes_agree():
    assert_routes_agree(BUNDLED, BUNDLED.conserved)


@pytest.mark.parametrize("name", ["third-order", "renamed"])
def test_edited_files_routes_agree(name):
    text = renamed_dependents() if name == "renamed" else variant(name)
    problem = load_problem_text(text, f"{name}.prob")
    assert_routes_agree(problem, problem.conserved)


def rescaled(vec, r: Fraction) -> ConservedVector:
    return ConservedVector(vec.label, mul(const(r), vec.density), mul(const(r), vec.flux))


ratios = st.builds(
    Fraction,
    st.integers(-50, 50).filter(bool),
    st.integers(1, 36),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(r=ratios, index=st.integers(0, len(BUNDLED.conserved) - 1))
def test_rescaled_vectors_routes_agree(r, index):
    """A rescaled vector leaves the multiplier combination as it was, so
    the divergence residuals mix denominators."""
    assert_routes_agree(BUNDLED, [rescaled(BUNDLED.conserved[index], r)])


# ---------------------------------------------------------------------------
# integral itself

U, V = (frozenset({(BUNDLED.ctx[name], 1)}) for name in ("u", "v"))
ONE = frozenset()


def test_integral_clears_the_least_common_denominator():
    f = {U: Fraction(1, 2), V: Fraction(-3, 4)}
    g = {ONE: Fraction(5, 6), U: 2}
    d, sf, sg = integral(f, g)
    assert d == 12
    assert sf == {U: 6, V: -9} and sg == {ONE: 10, U: 24}
    assert all(type(c) is int for c in (*sf.values(), *sg.values()))
    assert f == {U: Fraction(1, 2), V: Fraction(-3, 4)}  # the inputs stay as they were


def test_integral_returns_integral_forms_as_given():
    f, g = {U: 3, V: -1}, {}
    d, *out = integral(f, g)
    assert d == 1 and out[0] is f and out[1] is g
    assert integral() == (1,)


forms = st.dictionaries(
    st.sampled_from([ONE, U, V, U | V]),
    st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 36)),
    max_size=4,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fs=st.lists(forms, max_size=3))
def test_integral_scales_by_the_least_clearing_denominator(fs):
    d, *scaled = integral(*fs)
    assert len(scaled) == len(fs)
    for f, s in zip(fs, scaled):
        if d == 1:  # returned as given, a Fraction(2, 1) included
            assert s is f
        assert s.keys() == f.keys()
        assert all(s[m] == d * f[m] and (d == 1 or type(s[m]) is int) for m in f)
    coefficients = [c for f in fs for c in f.values()]
    # no proper divisor clears them all: d/p fails for each prime p of d
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):  # the primes of denominators up to 36
        if d % p == 0:
            assert any(((d // p) * c).denominator != 1 for c in coefficients)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f=forms)
def test_normalize_divides_once(f):
    d, s = integral(f)
    assert typed(normalize(s, d)) == typed(normalize(f))

