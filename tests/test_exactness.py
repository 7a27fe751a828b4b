"""No float reaches the exact layer.

A working-form coefficient is an ``int`` while it is integral and a
``Fraction`` otherwise, so a division that starts from an ``int``
(``1 / c``) would make a float that still compares equal to the exact
value and hides in every zero test.  These checks watch every form that
enters ``normal._collect``, the one exit to a ``PolyNF``, and every
coefficient that leaves it, over the exact commands and ``classify``.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import pytest

from nlseverify import normal
from nlseverify.cli import main
from nlseverify.exprs import DEPENDENT, VarId, const, mul, pow_, var
from nlseverify.normal import normalize

COMMANDS = [
    ["verify"],
    ["associate"],
    ["reduce"],
    ["--seed", "1", "classify"],
    ["--printed-variants", "verify"],
    ["--printed-variants", "reduce"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_collected_coefficient_is_an_int_or_a_fraction(monkeypatch, argv):
    collect = normal._collect
    coefficients = []

    def watched(f):
        nf = collect(f)
        coefficients.extend(f.values())
        coefficients.extend(c for _, c in nf.terms)
        return nf

    monkeypatch.setattr(normal, "_collect", watched)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    assert coefficients
    assert [c for c in coefficients if type(c) not in (int, Fraction)] == []


def test_a_reciprocal_of_an_integral_coefficient_is_a_fraction():
    u = var(VarId(DEPENDENT, "u"))
    ((_, c),) = normalize(pow_(mul(const(2), u), -1)).terms
    assert type(c) is Fraction and c == Fraction(1, 2)
    ((_, c),) = normalize(mul(const(4), u)).terms
    assert type(c) is int and c == 4
