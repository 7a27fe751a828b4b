"""Property tests: a jet's multi-index is its sorted derivative word."""

from __future__ import annotations

from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlseverify.exprs import Context, JetOrderError, var
from nlseverify.jets import iterated_derivative
from nlseverify.normal import as_form, normalize
from nlseverify.parse import parse

CTX = Context(("t", "x"), ("u", "v"), ("beta", "delta"))
ORACLE = pytest.importorskip("sympy_jets").SympyJets(CTX)
LETTERS = [v.name for v in CTX.independents]
words = st.text(alphabet=LETTERS, min_size=1, max_size=CTX.max_order)


@cache
def sympy_derivative(e, word: str):
    """SymPy's derivative along ``word``, once per sorted word."""
    return normalize(ORACLE.total_derivative(e, word))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word=words, data=st.data())
def test_jet_is_its_sorted_word(word, data):
    u = CTX["u"]
    shuffled = "".join(data.draw(st.permutations(word)))
    jv = CTX.jet(u, word)
    assert jv.suffix == "".join(sorted(word))
    assert jv == CTX.jet(u, shuffled)
    assert jv == reduce(lambda g, ch: CTX.bump(g, CTX[ch]), word, u)
    assert jv.total_order == len(word)
    assert sum(jv.order_in(ch) for ch in LETTERS) == len(word)
    assert parse(jv.name, CTX) == var(jv)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(word=st.text(alphabet=LETTERS, min_size=5, max_size=5))
def test_words_past_the_cap_raise(word):
    assert len(word) == CTX.max_order + 1
    u = CTX["u"]
    with pytest.raises(JetOrderError):
        CTX.jet(u, word)
    with pytest.raises(JetOrderError):
        CTX.bump(CTX.jet(u, word[:-1]), CTX[word[-1]])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(word=words, data=st.data())
def test_iterated_derivative_is_order_free(word, data):
    e = CTX.parse("u^2*v + beta*t*x*u - delta*v^3 + x^2*u*v")
    shuffled = "".join(data.draw(st.permutations(word)))
    joint = normalize(iterated_derivative(as_form(e), word, CTX))
    assert joint == normalize(iterated_derivative(as_form(e), shuffled, CTX))
    assert joint == sympy_derivative(e, "".join(sorted(word)))
