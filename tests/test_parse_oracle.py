"""The parser against its reference (``tests/parse_oracle.py``, the
recursive-descent parser it replaced): on any text over the grammar's
tokens and some hostile characters, both give equal trees, or both raise
an error of one class with one message and one column."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlseverify.exprs import Context, render
from nlseverify.parse import parse
from parse_oracle import parse as oracle_parse

CTX = Context(("t", "x"), ("u", "v"), ("beta", "gamma", "delta", "eps"))

GRAMMAR = (
    "u", "v", "t", "x", "beta", "eps", "u_x", "v_xt", "u_tx", "u_xxxx",
    "sin", "cos", "sqrt", "arctan", "0", "1", "2", "3", "12", "007",
    "+", "-", "*", "/", "^", "(", ")", " ",
)
# spellings the grammar refuses or treats unlike a first guess
HOSTILE = (
    "²", "٣", "é", "\t", "**", "^-", "()", "1/0", "0^-1",
    "_", "u_", "u_q", "x_t", "w", "u_xxxxx", "sin_x", "?",
)
TOKENS = GRAMMAR * 12 + HOSTILE  # most texts get past the tokenizer


def outcome(parse_fn, text: str):
    """The tree and its rendering, or the error's class, message and column."""
    try:
        e = parse_fn(text, CTX)
    except Exception as exc:  # the class is part of the outcome
        return type(exc).__name__, str(exc), getattr(exc, "message", None), getattr(exc, "pos", None)
    return "tree", e, render(e)


SOUP = st.tuples(st.sampled_from(("", " ")), st.lists(st.sampled_from(TOKENS), max_size=24)).map(
    lambda sep_toks: sep_toks[0].join(sep_toks[1])
)
# texts that mostly parse: the grammar's rules applied to its atoms
WELL_FORMED = st.recursive(
    st.sampled_from(GRAMMAR[:10] + GRAMMAR[14:20]),
    lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from(("+", " - ", "*", "/")), kids).map("".join),
        kids.map("-{}".format),
        kids.map("({})".format),
        st.tuples(kids, st.sampled_from(("^2", "^-1", "^(-2)", "^0", " ^ 3"))).map("".join),
        st.tuples(st.sampled_from(GRAMMAR[10:14]), kids).map("{0[0]}({0[1]})".format),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(st.one_of(SOUP, WELL_FORMED))
@example("-u^2 - -3*v^-2/(beta - 1)")
@example("sqrt(-4) + u")
@example("u^(-0)*2^-1")
@example("٣*u²")
@example("0^(-1")
@example("u/(2 - 2)")
@example("1/0 + é")
def test_parser_matches_the_oracle(text):
    got, want = outcome(parse, text), outcome(oracle_parse, text)
    assert got == want, text
