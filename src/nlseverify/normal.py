"""Canonical polynomial normal form with opaque sin, cos and sqrt atoms.

A normal form maps monomials over a fixed, totally ordered set of
generators (plain variables, jet variables, and sin/cos/sqrt atoms) to
nonzero exact rational coefficients: an ``int`` when the coefficient is
integral, a ``Fraction`` otherwise, and never a float.  Two expressions
that agree as polynomial/trig identities normalize to equal forms; the
empty form is the decisive zero test used by every verification predicate.

A ``Fraction`` operation costs about a hundred ``int`` ones, so a caller
linear in its input clears the denominators first (Geddes, Czapor &
Labahn, *Algorithms for Computer Algebra*, ch. 2): :func:`integral`
scales forms by their coefficients' least common denominator ``d``, the
work runs on ints, and ``normalize(f, d)`` divides the collected form by
``d``, the one division.

:func:`normalize` is the only constructor.  It takes a tree, which
:func:`as_form` walks into the working form, a dict from monomials
(frozensets of ``(generator, exponent)`` pairs, so unordered) to exact
coefficients, or a working form built by the jet calculus (``mul_forms``,
``pow_form``, ``accumulate``, ``trig_form``), and
:func:`_collect` turns that into a :class:`PolyNF` once, when the form
is returned: it rewrites every ``sin(A)^2`` to ``1 - cos(A)^2`` and every
``sqrt(p)^k`` to ``p^(k // 2)*sqrt(p)^(k % 2)`` (floor division, so for
negative ``k`` too), drops zero coefficients and sorts.  The rewrites
reduce modulo ``sin(A)^2 + cos(A)^2 - 1`` and ``sqrt(p)^2 - p`` (Cox,
Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2), one
relation per atom pair or root, and those relations share no leading
generators, so on polynomials the reduced form is unique and rewriting
once at the end equals rewriting after every step.
Negative powers of ``cos(A)`` keep it unique, since the rewrite never
touches a cosine exponent; a negative power of ``sin(A)`` does not
(``sin(A)^-1*(sin(A)^2 + cos(A)^2 - 1)`` would stay nonzero), so a
reciprocal that puts one on a sine atom is rejected.

Trig handling: sine and cosine of a normalized argument become opaque
atoms.  Double angles are expanded on construction (``sin(2A)`` to
``2*sin(A)*cos(A)``, ``cos(2A)`` to ``cos(A)^2 - sin(A)^2``) so one atom
pair per argument family survives, and the sign of the argument is
fixed so that its leading coefficient is positive.  Atoms are interned
like the generators (``exprs.Interned``): one object per function and
argument, hashed by identity, with its sort key and its tree built once.

Square roots: ``sqrt(p)`` is an atom only when ``p`` is a single declared
parameter, so every monomial holds it to the power 0 or 1.  A wider
argument (``sqrt(2*eps)``, ``sqrt(2)``, ``sqrt(u)``) would make the form
depend on how the argument is factored (``sqrt(8*eps)`` against
``2*sqrt(2*eps)``) and is rejected, as are arctangents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .exprs import (
    PARAMETER,
    Const,
    Expr,
    ExprError,
    FuncApp,
    Interned,
    JetVar,
    Pow,
    Prod,
    Sum,
    Var,
    Value,
    VarId,
    add,
    const,
    func,
    int_if_integral,
    mul,
    pow_,
    render,
)


class NormalizationError(ExprError):
    """The expression is not polynomial in the supported generators."""


class Atom(Interned):
    """sin or cos of a canonical (normalized) argument, or sqrt of a
    single parameter.  Interned like the generators; its ``node`` is the
    tree that :meth:`PolyNF.to_expr` puts in its place."""

    _fields = ("fn", "arg")  # fn: "sin", "cos" or "sqrt"; arg: a PolyNF
    __slots__ = (*_fields, "node")

    def _derive(self) -> dict:
        key = (2, _FN_RANK[self.fn], nf_key(self.arg))
        return {"key": key, "node": func(self.fn, self.arg.to_expr())}

    @property
    def name(self) -> str:
        return render(self.node)

    def __repr__(self) -> str:
        return self.name


NGen = Union[VarId, JetVar, Atom]
Monomial = tuple[tuple[NGen, int], ...]

_FN_RANK = {"sin": 0, "cos": 1, "sqrt": 2}


def _node(g: NGen) -> Expr:
    return g.node if type(g) is Atom else Var(g)


def mono_key(m: Monomial) -> tuple:
    return tuple((g.key, e) for g, e in m)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def nf_key(nf: "PolyNF") -> tuple:
    return tuple(
        (mono_key(m), (c.numerator, c.denominator)) for m, c in nf.terms
    )


class PolyNF(Value):
    """Sorted, fully collected normal form.  Built only by :func:`normalize`
    through :func:`_collect`.  Each coefficient is exact: an ``int`` when
    it is integral, a ``Fraction`` otherwise."""

    _fields = ("terms",)  # (monomial, coefficient) pairs

    def __hash__(self) -> int:
        """The hash of the fields, kept after the first call: an atom's
        table hashes its argument, a whole normal form."""
        kept = vars(self)  # written past the frozen __setattr__, as cached_property does
        if "_hash" not in kept:
            kept["_hash"] = hash(self._key())
        return kept["_hash"]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def form(self, k=1) -> "Form":
        """``k`` times this normal form as a working form."""
        return {frozenset(m): k * c for m, c in self.terms}

    def to_expr(self) -> Expr:
        """The tree of this form, built once and kept."""
        kept = vars(self)
        if "_expr" not in kept:
            kept["_expr"] = add(
                *(mul(const(c), *(pow_(_node(g), e) for g, e in m)) for m, c in self.terms)
            )
        return kept["_expr"]

    def __repr__(self) -> str:
        return f"<nf {render(self.to_expr())}>"


# The working form: unordered monomial -> exact coefficient, an int while it
# is integral (int arithmetic is far cheaper than Fraction's), a Fraction
# otherwise; _collect keeps that split.  A division must stay exact, so it
# starts from a Fraction: 1 / c is a float when c is an int.
Form = dict[frozenset, int | Fraction]

_ONE = frozenset()


def _collect(f: Form) -> PolyNF:
    """The one exit: rewrite sine squares and root powers, drop zeros, sort.

    Pairs inside a monomial are sorted by generator, and terms by degree,
    then monomial, descending.
    """
    acc: Form = {}
    for m, c in f.items():
        accumulate(acc, _rewritten(m), c)
    terms = [
        (tuple(sorted(m, key=lambda ge: ge[0].key)), int_if_integral(c))
        for m, c in acc.items()
        if c
    ]
    terms.sort(key=lambda mc: (mono_degree(mc[0]), mono_key(mc[0])), reverse=True)
    return PolyNF(tuple(terms))


def _rewritten(m: frozenset) -> Form:
    """``m`` with each ``sin(A)^k``, k >= 2, as ``sin(A)^(k % 2)*(1 - cos(A)^2)^(k // 2)``
    and each ``sqrt(p)^k``, k outside 0..1, as ``p^(k // 2)*sqrt(p)^(k % 2)``."""
    out: Form = {m: 1}
    for g, k in m:
        if not isinstance(g, Atom):
            continue
        if g.fn == "sqrt" and not 0 <= k <= 1:
            ((p, _),) = g.arg.terms[0][0]
            out = mul_forms(out, {frozenset({(g, -2 * (k // 2)), (p, k // 2)}): 1})
        elif g.fn == "sin" and k >= 2:
            # (1 - cos(A)^2) / sin(A)^2, once per square taken out
            ratio = {
                frozenset({(g, -2)}): 1,
                frozenset({(g, -2), (Atom("cos", g.arg), 2)}): -1,
            }
            out = mul_forms(out, pow_form(ratio, k // 2))
    return out


def integral(*forms: Form) -> tuple:
    """``(d, d*f, ...)`` for the least common denominator ``d`` of every
    coefficient of ``forms``, so each scaled form has int coefficients;
    the forms themselves when ``d`` is 1."""
    d = math.lcm(*(c.denominator for f in forms for c in f.values()))
    if d == 1:
        return (1, *forms)
    return (d, *({m: c.numerator * (d // c.denominator) for m, c in f.items()} for f in forms))


def accumulate(acc: Form, f: Form, k=1) -> Form:
    """Add ``k*f`` into ``acc`` in place."""
    for m, c in f.items():
        acc[m] = acc.get(m, 0) + k * c
    return acc


def mono_mul(a: frozenset, b: frozenset) -> frozenset:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for g, _ in b:
        if g in d:
            break
    else:  # no generator in common: the product is the union of the pairs
        return a | b
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return frozenset((g, e) for g, e in d.items() if e)


# The most term pairs one product may form: the tier-1 suite's largest is
# 37,265 ((x + 10)^400), a bundled command's 15.  Each nested square of a
# sum about quadruples the pairs, so an unbounded expansion stalls the loader.
MAX_PRODUCT_PAIRS = 200_000


def mul_forms(a: Form, b: Form) -> Form:
    if len(a) * len(b) > MAX_PRODUCT_PAIRS:
        raise NormalizationError(
            f"expanding a product of {len(a)} by {len(b)} terms exceeds "
            f"{MAX_PRODUCT_PAIRS} term pairs"
        )
    out: Form = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


def pow_form(f: Form, n: int) -> Form:
    """``f^n``.  A negative ``n`` needs ``f`` to collect to a single
    monomial with no sine in it (see the module docstring)."""
    if n < 0:
        base = _collect(f)
        if len(base.terms) != 1:
            raise NormalizationError(
                f"cannot normalize reciprocal of a non-monomial: {render(base.to_expr())}"
            )
        ((m, c),) = base.terms
        if any(isinstance(g, Atom) and g.fn == "sin" for g, _ in m):
            shown = render(pow_(base.to_expr(), n))
            raise NormalizationError(f"cannot normalize a negative power of a sine: {shown}")
        f, n = {frozenset((g, -k) for g, k in m): Fraction(1) / c}, -n
    out: Form = {_ONE: 1}
    while n:
        if n & 1:
            out = mul_forms(out, f)
        n >>= 1
        if n:
            f = mul_forms(f, f)
    return out


def trig_form(fn: str, arg: PolyNF) -> Form:
    """Atom construction with constant folding, double-angle expansion,
    and odd/even argument-sign canonicalization."""
    if arg.is_zero:
        return {} if fn == "sin" else {_ONE: 1}
    if all(c.denominator == 1 and c.numerator % 2 == 0 for _, c in arg.terms):
        half = _collect(arg.form(Fraction(1, 2)))
        s, c = trig_form("sin", half), trig_form("cos", half)
        if fn == "sin":
            return accumulate({}, mul_forms(s, c), 2)
        return accumulate(mul_forms(c, c), mul_forms(s, s), -1)
    if arg.terms[0][1] < 0:
        flipped = trig_form(fn, _collect(arg.form(-1)))
        return accumulate({}, flipped, -1) if fn == "sin" else flipped
    return {frozenset({(Atom(fn, arg), 1)}): 1}


def as_form(e: Expr) -> Form:
    """The working form of a tree (not yet collected)."""
    if isinstance(e, Const):
        return {_ONE: int_if_integral(e.value)}
    if isinstance(e, Var):
        return {frozenset({(e.ref, 1)}): 1}
    if isinstance(e, Sum):
        acc: Form = {}
        for t in e.terms:
            accumulate(acc, as_form(t))
        return acc
    if isinstance(e, Prod):
        out: Form = {_ONE: 1}
        for f in e.factors:
            out = mul_forms(out, as_form(f))
        return out
    if isinstance(e, Pow):
        return pow_form(as_form(e.base), e.exponent)
    if isinstance(e, FuncApp):
        if e.fn in ("sin", "cos"):
            return trig_form(e.fn, normalize(e.arg))
        root = e.arg.ref if e.fn == "sqrt" and isinstance(e.arg, Var) else None
        if isinstance(root, VarId) and root.kind == PARAMETER:
            return {frozenset({(Atom("sqrt", normalize(e.arg)), 1)}): 1}
        raise NormalizationError(
            f"{e.fn} is not polynomial; offending subtree: {render(e)}"
        )
    raise TypeError(f"not an expression node: {e!r}")


def normalize(e: Expr | Form, den: int = 1) -> PolyNF:
    """Normal form of an expression tree or of a working form, divided by
    ``den`` (the ``d`` of :func:`integral`).

    Raises :class:`NormalizationError` on arctan nodes, on sqrt of
    anything but a single parameter, on reciprocals of non-monomial
    subexpressions and on negative powers of a sine; those shapes live
    outside the fragment this form covers.
    """
    nf = _collect(e if isinstance(e, dict) else as_form(e))
    return nf if den == 1 else PolyNF(tuple((m, int_if_integral(Fraction(c, den))) for m, c in nf.terms))
