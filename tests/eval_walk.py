"""Reference numeric evaluator: a recursive walk of the expression tree.

The package evaluates through ``exprs.compile_numeric``, which flattens a
tree into a program, shares repeated subtrees, folds constants, skips the
neutral start of products and drops factors of 1.0 and -1.0.  This walk
does none of that: it evaluates every node where it stands, in tree order,
and is the oracle the compiled program is held to (same bytes, same errors
at the same node).  A sum starts at its first term here too, because
``0 + x`` turns ``-0.0`` into ``0.0``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping

from nlseverify.exprs import (
    Const,
    EvalDomainError,
    Expr,
    FuncApp,
    Gen,
    Pow,
    Prod,
    Sum,
    UnboundGeneratorError,
    Var,
    render,
)

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "arctan": math.atan}

_SCALARS = frozenset((int, bool, Fraction))  # bound as floats, like float and numpy's float64


def _any(mask) -> bool:
    return mask if isinstance(mask, bool) else mask.any()


def _digit_count(n: int) -> int:
    """Decimal digits of a positive integer; ``str`` refuses past 4300 of them."""
    d = int(math.log10(n)) + 1
    return d - (10 ** (d - 1) > n) + (10**d <= n)


def eval_walk(e: Expr, bindings: Mapping[Gen, object]) -> object:
    """Evaluate to a float, or to an array when a binding is a numpy array."""
    if isinstance(e, Const):
        try:
            return float(e.value)
        except OverflowError:
            digits = _digit_count(abs(e.value.numerator) // e.value.denominator)
            raise EvalDomainError(f"a constant of {digits} digits overflows a float") from None
    if isinstance(e, Var):
        try:
            value = bindings[e.ref]
        except KeyError:
            raise UnboundGeneratorError(f"no value bound for {e.ref}") from None
        return float(value) if isinstance(value, float) or type(value) in _SCALARS else value
    if isinstance(e, Sum):  # from the first term: 0 + -0.0 is +0.0
        terms = iter(e.terms)
        out = eval_walk(next(terms), bindings)
        for t in terms:
            out = out + eval_walk(t, bindings)
        return out
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out = out * eval_walk(f, bindings)
        return out
    if isinstance(e, Pow):
        base = eval_walk(e.base, bindings)
        if e.exponent < 0 and _any(base == 0.0):
            raise EvalDomainError(f"zero base with negative exponent in {render(e)}")
        try:
            return base**e.exponent
        except OverflowError:
            raise EvalDomainError(f"overflow in {render(e)}") from None
    if isinstance(e, FuncApp):
        a = eval_walk(e.arg, bindings)
        scalar = isinstance(a, float)
        if e.fn == "sqrt" and _any(a < 0):
            low = a if scalar else sys.modules["numpy"].nanmin(a)
            raise EvalDomainError(f"sqrt of negative value {float(low)} in {render(e)}")
        if not scalar:  # an array, so numpy is loaded
            return getattr(sys.modules["numpy"], e.fn)(a)
        try:
            return _FUNCTIONS[e.fn](a)
        except ValueError:  # math.sin(inf) and the like
            raise EvalDomainError(f"{e.fn} of {a} in {render(e)}") from None
    raise TypeError(f"not an expression node: {e!r}")
