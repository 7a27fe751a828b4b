"""Exact expression trees over jet variables.

Expressions are immutable trees with rational constants kept exact
(``fractions.Fraction``), so equality of two expressions can be decided
structurally and, after normalization, semantically.  Generators are
plain variables (independent, dependent, parameter) and jet variables
(partial derivatives of a dependent variable with respect to the
independent ones).  Generators are interned (:class:`Interned`): equal
fields give one object, which compares and hashes by identity and keeps
its sort key.
"""

from __future__ import annotations

import math
import operator
import re
import sys
import weakref
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

INDEPENDENT = "independent"
DEPENDENT = "dependent"
PARAMETER = "parameter"

_KIND_RANK = {INDEPENDENT: 0, DEPENDENT: 1, PARAMETER: 2}

FUNCTION_NAMES = ("sin", "cos", "sqrt", "arctan")

NAME = re.compile(r"[a-z][a-z0-9]*")  # a variable name; the tokenizer's identifier


class ExprError(Exception):
    """Base class for expression-level failures."""


class JetOrderError(ExprError):
    """A requested derivative exceeds the context's maximum jet order."""


class EvalDomainError(ExprError):
    """Numeric evaluation left the domain (sqrt of a negative, division by zero)."""


class UnboundGeneratorError(ExprError):
    """Numeric evaluation met a generator with no binding."""


class DeclarationError(ValueError):
    """:class:`Context` refuses the declared variable ``name``."""

    def __init__(self, message: str, name: str) -> None:
        super().__init__(message)
        self.name = name


class Frozen:
    """Immutable instances whose class declares its fields once.

    ``_fields`` names the fields in order.  ``__init__`` takes every field
    positionally and writes them into ``vars(self)``, past
    ``__setattr__``, so a ``cached_property`` still keeps its value; a
    wrong count is a ``TypeError`` naming the fields, and a keyword is
    Python's own.  A class with ``__slots__`` has no ``vars``: its own
    ``__init__`` writes through ``object.__setattr__``.  Assigning or
    deleting an attribute later raises.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args) -> None:
        fields = self._fields
        if len(args) != len(fields):
            raise self._arity_error(args)
        vars(self).update(zip(fields, args))

    @classmethod
    def _arity_error(cls, args: tuple) -> TypeError:
        fields = cls._fields
        return TypeError(f"{cls.__name__}() takes {len(fields)} fields {fields}, got {len(args)}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A record that is the tuple of its declared fields.

    Two values are equal when they are of one class with equal fields; a
    value of any other class gets ``NotImplemented``.  The hash is the
    hash of the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        """Give a class that declares fields its ``_key``, the field tuple,
        read with one ``attrgetter``: every dict lookup of a node hashes
        its subtree."""
        if cls._fields:
            get = operator.attrgetter(*cls._fields)
            if len(cls._fields) == 1:  # then attrgetter returns the bare value
                cls._key = lambda self: (get(self),)
            else:
                cls._key = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


_set = object.__setattr__  # how a slotted __init__ writes past Frozen.__setattr__


class Interned(Frozen):
    """A record of which at most one object lives per field tuple.

    ``__new__`` takes every field positionally, as ``Frozen.__init__``
    does, with the same ``TypeError`` for a wrong count, and returns
    the live object with those fields from the class's ``_table``, or
    builds one, with the derived data that ``_derive`` computes once; each
    has its ``key``, its place in the order of generators.  Equal fields
    thus mean the same object, so equality and hashing are ``object``'s:
    identity, in C.  The table holds its objects weakly, so one that
    nothing else holds is freed and, when next asked for, built anew.  No
    derived value refers back to its object: a reference cycle would leave
    the object to the cyclic collector, and a later call could find it
    still alive.
    """

    __slots__ = ("key", "__weakref__")

    __init__ = object.__init__  # __new__ has done the work

    def __init_subclass__(cls) -> None:
        cls._table = weakref.WeakValueDictionary()

    def __new__(cls, *args):
        if len(args) != len(cls._fields):
            raise cls._arity_error(args)
        self = cls._table.get(args)
        if self is None:
            self = object.__new__(cls)
            for field, value in zip(cls._fields, args):
                _set(self, field, value)
            for name, value in self._derive().items():
                _set(self, name, value)
            cls._table[args] = self
        return self


class VarId(Interned):
    """A declared variable: independent, dependent, or parameter."""

    __slots__ = _fields = ("kind", "name")

    def _derive(self) -> dict:
        return {"key": (0, _KIND_RANK[self.kind], self.name, "")}

    def __repr__(self) -> str:
        return self.name


class JetVar(Interned):
    """A derivative of a dependent variable.

    ``suffix`` is the derivative word: one independent-variable letter per
    derivative, sorted, so mixed derivatives have a single canonical
    spelling (``u_tx`` and ``u_xt`` are the same jet variable, written
    ``u_tx``).  :meth:`Context.jet` builds jets and sorts and checks the word.
    """

    __slots__ = _fields = ("dep", "suffix")

    def _derive(self) -> dict:
        return {"key": (1, self.dep.name, len(self.suffix), self.suffix)}

    @property
    def total_order(self) -> int:
        return len(self.suffix)

    def order_in(self, indep_name: str) -> int:
        return self.suffix.count(indep_name)

    @property
    def name(self) -> str:
        return f"{self.dep.name}_{self.suffix}"

    def __repr__(self) -> str:
        return self.name


Gen = Union[VarId, JetVar]

ref_sort_key = operator.attrgetter("key")  # a total order over plain and jet variables


class Expr(Value):
    """Base node.  Trees are immutable, and two nodes are equal when they
    are of one class with equal fields."""

    __slots__ = ()

    def __repr__(self) -> str:
        return render(self)


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction) -> None:
        _set(self, "value", value)


class Var(Expr):
    __slots__ = _fields = ("ref",)

    def __init__(self, ref: Gen) -> None:
        _set(self, "ref", ref)


class Sum(Expr):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        _set(self, "terms", terms)


class Prod(Expr):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]) -> None:
        _set(self, "factors", factors)


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class FuncApp(Expr):
    __slots__ = _fields = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr) -> None:
        _set(self, "fn", fn)
        _set(self, "arg", arg)


_SHARED = {k: Const(Fraction(k)) for k in range(-99, 100)}  # one node per small integer


def const(value) -> Const:
    """The node of a rational, the shared one for an integer in ``_SHARED``."""
    if type(value) is not int:
        value = value if type(value) is Fraction else Fraction(value)
        if value.denominator != 1:
            return Const(value)
        value = value.numerator
    node = _SHARED.get(value)
    return node if node is not None else Const(Fraction(value))


ZERO = const(0)
ONE = const(1)
MINUS_ONE = const(-1)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError(f"cannot interpret {x!r} as an expression")


def var(ref: Gen) -> Var:
    return Var(ref)


def int_if_integral(c: int | Fraction) -> int | Fraction:
    """``c`` as an int when it is integral: int arithmetic is far cheaper
    than Fraction's."""
    return c.numerator if c.denominator == 1 else c


def add(*terms) -> Expr:
    flat: list[Expr] = []
    rat = 0
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            for s in t.terms:
                if isinstance(s, Const):
                    rat += int_if_integral(s.value)
                else:
                    flat.append(s)
        elif isinstance(t, Const):
            rat += int_if_integral(t.value)
        else:
            flat.append(t)
    if rat != 0:
        flat.append(const(rat))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    rat = 1
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Prod):
            for g in f.factors:
                if isinstance(g, Const):
                    rat *= int_if_integral(g.value)
                else:
                    flat.append(g)
        elif isinstance(f, Const):
            rat *= int_if_integral(f.value)
        else:
            flat.append(f)
    if rat == 0:
        return ZERO
    if rat != 1:
        flat.insert(0, const(rat))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def neg(e: Expr) -> Expr:
    """``mul(const(-1), e)``, built directly unless ``e`` is a product."""
    if isinstance(e, Prod):
        return mul(MINUS_ONE, e)
    if isinstance(e, Const):
        return const(-e.value)
    return Prod((MINUS_ONE, e))


def pow_(base, exponent: int) -> Expr:
    base = as_expr(base)
    if not isinstance(exponent, int):
        raise TypeError("exponents must be integers")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return const(base.value**exponent)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def _sqrt_fold(value: Fraction) -> Fraction | None:
    pn = math.isqrt(value.numerator)
    pd = math.isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None


def func(fn: str, arg) -> Expr:
    arg = as_expr(arg)
    if fn not in FUNCTION_NAMES:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Const):
        if fn == "sin" and arg.value == 0:
            return ZERO
        if fn == "cos" and arg.value == 0:
            return ONE
        if fn == "arctan" and arg.value == 0:
            return ZERO
        if fn == "sqrt":
            if arg.value < 0:
                raise EvalDomainError("sqrt of a negative constant")
            folded = _sqrt_fold(arg.value)
            if folded is not None:
                return const(folded)
    return FuncApp(fn, arg)


# ---------------------------------------------------------------------------
# rendering


_PREC_SUM = 10
_PREC_PROD = 20
_PREC_POW = 30
_PREC_ATOM = 40


def _prec(e: Expr) -> int:
    if isinstance(e, Sum):
        return _PREC_SUM
    if isinstance(e, Prod):
        return _PREC_PROD
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_SUM
    return _PREC_ATOM


def _wrap(e: Expr, parent_prec: int) -> str:
    s = render(e)
    if _prec(e) < parent_prec:
        return f"({s})"
    return s


def _split_negative(t: Expr) -> tuple[bool, Expr]:
    """Peel a negative rational coefficient off a sum term for display."""
    if isinstance(t, Const) and t.value < 0:
        return True, const(-t.value)
    if isinstance(t, Prod) and isinstance(t.factors[0], Const) and t.factors[0].value < 0:
        head = const(-t.factors[0].value)
        return True, mul(head, *t.factors[1:])
    return False, t


def render(e: Expr) -> str:
    """Render an expression to text in the input grammar.

    Round trip: parsing the rendered text reproduces the expression tree
    exactly (both the parser and this renderer go through the same
    canonicalizing constructors).
    """
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.ref.name
    if isinstance(e, Sum):
        parts = [render(e.terms[0])]
        for t in e.terms[1:]:
            negative, body = _split_negative(t)
            parts.append((" - " if negative else " + ") + _wrap(body, _PREC_SUM + 1))
        return "".join(parts)
    if isinstance(e, Prod):
        factors = list(e.factors)
        prefix = ""
        if isinstance(factors[0], Const):
            c = factors[0].value
            if c == -1:
                prefix = "-"
                factors = factors[1:]
        return prefix + "*".join(_wrap(f, _PREC_PROD) for f in factors)
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_POW + 1)}^{e.exponent}"
    if isinstance(e, FuncApp):
        return f"{e.fn}({render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# structural queries


def collect_refs(e: Expr, out: set | None = None) -> set[Gen]:
    """All plain and jet variables appearing in the tree."""
    if out is None:
        out = set()
    if isinstance(e, Var):
        out.add(e.ref)
    elif isinstance(e, Sum):
        for t in e.terms:
            collect_refs(t, out)
    elif isinstance(e, Prod):
        for f in e.factors:
            collect_refs(f, out)
    elif isinstance(e, Pow):
        collect_refs(e.base, out)
    elif isinstance(e, FuncApp):
        collect_refs(e.arg, out)
    return out


def jet_order(e: Expr) -> int:
    """Highest total derivative order of any jet variable in the tree."""
    best = 0
    for g in collect_refs(e):
        if isinstance(g, JetVar):
            best = max(best, g.total_order)
    return best


def substitute(e: Expr, bindings: Mapping[Gen, Expr]) -> Expr:
    """Simultaneous substitution of generators by expressions.

    Replacements are not substituted into again, so every binding map is
    well defined, a swap such as ``{u: v, v: u}`` included.
    """
    return _subst(e, bindings)


def _subst(e: Expr, bindings: Mapping[Gen, Expr]) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        hit = bindings.get(e.ref)
        return hit if hit is not None else e
    if isinstance(e, Sum):
        return add(*(_subst(t, bindings) for t in e.terms))
    if isinstance(e, Prod):
        return mul(*(_subst(f, bindings) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(_subst(e.base, bindings), e.exponent)
    if isinstance(e, FuncApp):
        return func(e.fn, _subst(e.arg, bindings))
    raise TypeError(f"not an expression node: {e!r}")


_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "arctan": math.atan}

_SCALARS = frozenset((int, bool, Fraction))  # bound as floats, like float and numpy's float64


def _any(mask) -> bool:
    return mask if isinstance(mask, bool) else mask.any()


def _digit_count(n: int) -> int:
    """Decimal digits of a positive integer; ``str`` refuses past 4300 of them."""
    d = int(math.log10(n)) + 1
    return d - (10 ** (d - 1) > n) + (10**d <= n)


def _as_value(value):
    """A bound value as evaluation sees it: scalars as floats, arrays as given."""
    return float(value) if isinstance(value, float) or type(value) in _SCALARS else value


def _power(base, node: Pow, out=None):
    """``base**exponent``; an array result goes into ``out`` when given, with
    the bits of ``**`` (which squares with ``numpy.square``, as here)."""
    if node.exponent < 0 and _any(base == 0.0):
        raise EvalDomainError(f"zero base with negative exponent in {render(node)}")
    if out is not None:
        np = sys.modules["numpy"]
        return np.square(base, out) if node.exponent == 2 else np.power(base, node.exponent, out)
    try:
        return base**node.exponent
    except OverflowError:
        raise EvalDomainError(f"overflow in {render(node)}") from None


def _apply(arg, node: FuncApp, out=None):
    scalar = isinstance(arg, float)
    if node.fn == "sqrt" and _any(arg < 0):
        low = arg if scalar else sys.modules["numpy"].nanmin(arg)
        raise EvalDomainError(f"sqrt of negative value {float(low)} in {render(node)}")
    if not scalar:  # an array, so numpy is loaded
        return getattr(sys.modules["numpy"], node.fn)(arg, out)
    try:
        return _FUNCTIONS[node.fn](arg)
    except ValueError:  # math.sin(inf) and the like
        raise EvalDomainError(f"{node.fn} of {arg} in {render(node)}") from None


def _fail(error: ExprError, _) -> None:
    raise type(error)(*error.args) from None


def _negate(a, _, out=None):
    return -a if out is None else sys.modules["numpy"].negative(a, out)


class Program(Frozen):
    """Expressions compiled by :func:`compile_numeric`, evaluated by :meth:`run`.

    The registers are the inputs, in the order of ``inputs``, followed by
    ``registers``: the compile-time constants, and None for each instruction
    result.  Each instruction ``(fn, dest, a, b)`` of ``code`` stores ``fn(reg[a],
    reg[b])`` in ``reg[dest]``; ``outputs`` holds the register of each expression.
    """

    _fields = ("inputs", "registers", "code", "outputs")

    def run(self, values) -> list:
        """The compiled expressions' values, one per expression, given one
        float or array per input; any other scalar is the caller's to convert."""
        reg = [*values, *self.registers]
        for fn, dest, a, b in self.code:
            reg[dest] = fn(reg[a], reg[b])
        return [reg[i] for i in self.outputs]


def compile_numeric(
    exprs: Sequence[Expr], fixed: Mapping[Gen, object], free: Sequence[Gen] = ()
) -> Program:
    """Compile expressions for numeric evaluation, once for many runs.

    ``free`` generators are the program's inputs, in that order; ``fixed``
    ones take their value now; any other generator is unbound.  The program
    evaluates the expressions in order, each node after its children and
    the terms of a sum or the factors of a product left to right, with the
    operations and the domain checks of :func:`eval_numeric`.  It computes
    each distinct operation on the same operands once, folds what depends
    on constants and fixed values alone at compile time, starts a sum at
    its first term and a product at its first factor.  An error that
    folding meets (an unbound generator, a constant that overflows, a fixed
    value outside a function's domain) is raised when a run reaches its
    node, so every run fails as the walk of the tree would.

    Factors of the float ``1.0`` or ``-1.0`` cost nothing, by four rewrites
    that give the same bits for every float, signed zeros and infinities
    included: ``x*1.0 -> x``, ``(-a)*b -> -(a*b)``, ``a + (-b) -> a - b``
    and ``(-a) + b -> b - a``.  A negation is thus carried along and
    emitted once, as a negation, only where it must become a value: an
    output, a power's base or a function's argument (and the first of two
    negated terms, since ``-(a + b)`` is not ``(-a) + (-b)`` at zeros).
    """
    base = len(free)
    slot = dict(zip(free, range(base)))
    registers: list = []
    known: dict[int, object] = {}  # register -> its value at compile time
    code: list[tuple] = []
    seen: dict = {}  # generator, constant or (operation, operands) -> its register

    def constant(value) -> int:
        r = base + len(registers)
        registers.append(value)
        known[r] = value
        return r

    def instruction(fn, a: int, b: int) -> int:
        dest = base + len(registers)
        registers.append(None)
        code.append((fn, dest, a, b))
        return dest

    def fail(error: ExprError) -> int:
        r = constant(error)
        return instruction(_fail, r, r)

    def once(key, fn, a: int, b: int) -> int:
        """The register of ``fn(a, b)``, folded when both are known."""
        r = seen.get(key)
        if r is None:
            if a in known and b in known:
                try:
                    r = constant(fn(known[a], known[b]))
                except ExprError as error:
                    r = fail(error)
            else:
                r = instruction(fn, a, b)
            seen[key] = r
        return r

    def materialize(r: int, negated: bool) -> int:
        """The register of the value itself, emitting a deferred negation."""
        return once((_negate, r), _negate, r, r) if negated else r

    def unit(r: int) -> bool:
        return r in known and type(known[r]) is float and abs(known[r]) == 1.0

    def visit(e: Expr) -> tuple[int, bool]:
        """The register of ``e``'s value, or of its negation (then True)."""
        kind = type(e)
        if kind is Sum:
            acc, neg = visit(e.terms[0])
            for t in e.terms[1:]:
                b, minus = visit(t)
                if neg and minus:
                    acc, neg = materialize(acc, True), False
                fn = operator.sub if neg or minus else operator.add
                x, y = (b, acc) if neg else (acc, b)
                acc, neg = once((fn, x, y), fn, x, y), False
            return acc, neg
        if kind is Prod:
            acc, neg = visit(e.factors[0])
            for f in e.factors[1:]:
                b, minus = visit(f)
                neg ^= minus
                if unit(b) and acc not in known:
                    neg ^= known[b] < 0
                elif unit(acc) and b not in known:
                    acc, neg = b, neg ^ (known[acc] < 0)
                else:
                    acc = once((operator.mul, acc, b), operator.mul, acc, b)
            return acc, neg
        if kind is Pow:
            a = materialize(*visit(e.base))
            return once((_power, a, e.exponent), _power, a, constant(e)), False
        if kind is FuncApp:
            a = materialize(*visit(e.arg))
            return once((_apply, a, e.fn), _apply, a, constant(e)), False
        if kind is Const:
            key = (e.value.numerator, e.value.denominator)
            if key not in seen:
                try:
                    seen[key] = constant(float(e.value))
                except OverflowError:
                    digits = _digit_count(abs(e.value.numerator) // e.value.denominator)
                    error = EvalDomainError(f"a constant of {digits} digits overflows a float")
                    seen[key] = fail(error)
            return seen[key], False
        if kind is Var:
            g = e.ref
            if g not in seen:
                if g in slot:
                    seen[g] = slot[g]
                else:
                    try:
                        seen[g] = constant(_as_value(fixed[g]))
                    except KeyError:
                        seen[g] = fail(UnboundGeneratorError(f"no value bound for {g}"))
            return seen[g], False
        raise TypeError(f"not an expression node: {e!r}")

    outputs = tuple(materialize(*visit(e)) for e in exprs)
    del visit  # a recursive closure is a reference cycle, which only the collector would free
    return Program(tuple(free), tuple(registers), tuple(code), outputs)


def eval_numeric(e: Expr, bindings: Mapping[Gen, object]) -> object:
    """Evaluate to a float, or to an array when a binding is a numpy array.

    Every generator present must be bound; arrays broadcast.  Any negative
    value under sqrt, any zero base under a negative exponent, and scalar
    overflow raise EvalDomainError; array overflow leaves inf or nan.  Only
    a value that is already an array reaches numpy: floats need no import.
    One use of :func:`compile_numeric`, with every binding fixed.
    """
    return compile_numeric((e,), bindings).run(())[0]


# ---------------------------------------------------------------------------
# declaration context


class Context:
    """Declared variables plus the jet-order cap.

    Independent variables must be single lowercase letters because jet
    suffixes are words over those letters (``u_tx``).
    """

    def __init__(
        self,
        independents: Iterable[str],
        dependents: Iterable[str],
        parameters: Iterable[str] = (),
        max_order: int = 4,
    ) -> None:
        self.independents = tuple(VarId(INDEPENDENT, n) for n in independents)
        self.dependents = tuple(VarId(DEPENDENT, n) for n in dependents)
        self.parameters = tuple(VarId(PARAMETER, n) for n in parameters)
        self.max_order = int(max_order)
        if self.max_order < 1:
            raise ValueError("max_order must be at least 1")
        names: dict[str, VarId] = {}
        for v in self.independents + self.dependents + self.parameters:
            if not NAME.fullmatch(v.name):
                raise DeclarationError(f"bad variable name {v.name!r}", v.name)
            if v.name in names:
                raise DeclarationError(f"duplicate variable name {v.name!r}", v.name)
            if v.name in FUNCTION_NAMES:
                raise DeclarationError(f"{v.name!r} is a reserved function name", v.name)
            names[v.name] = v
        for v in self.independents:
            if len(v.name) != 1:
                msg = f"independent variable {v.name!r} must be a single letter"
                raise DeclarationError(msg, v.name)
        self._by_name = names
        self._jets: dict[tuple[VarId, str], JetVar] = {}  # (dep, word as asked) -> its jet
        self.nodes: dict[str, Var] = {}  # identifier as parsed -> its node, kept by the parser

    def lookup(self, name: str) -> VarId | None:
        return self._by_name.get(name)

    def __getitem__(self, name: str) -> VarId:
        v = self.lookup(name)
        if v is None:
            raise KeyError(name)
        return v

    def is_independent_letter(self, ch: str) -> bool:
        v = self._by_name.get(ch)
        return v is not None and v.kind == INDEPENDENT

    def jet(self, dep, suffix: str) -> JetVar:
        """Jet variable from a suffix word, e.g. ``jet(u, 'xt')`` is u_tx.

        Every jet is built here: this is the one place that validates the
        letters and enforces the order cap.  A jet is interned, so
        ``jet(u, 'xt') is jet(u, 'tx')``.  The context keeps the jet of each
        word it has checked, so a word is checked the first time it is
        asked for; one that fails is not kept and raises on every request.
        """
        if isinstance(dep, str):
            dep = self[dep]
        known = self._jets.get((dep, suffix))
        if known is not None:
            return known
        if dep.kind != DEPENDENT:
            raise ValueError(f"cannot take derivatives of non-dependent {dep.name!r}")
        for ch in suffix:
            if not self.is_independent_letter(ch):
                raise ValueError(
                    f"bad derivative suffix {suffix!r}: {ch!r} is not an "
                    "independent variable"
                )
        if not suffix:
            raise ValueError("empty derivative suffix")
        if len(suffix) > self.max_order:
            raise JetOrderError(
                f"jet order {len(suffix)} exceeds maximum {self.max_order}"
            )
        made = self._jets[dep, suffix] = JetVar(dep, "".join(sorted(suffix)))
        return made

    def bump(self, g: Gen, wrt: VarId) -> JetVar:
        """One more derivative of a dependent variable or jet."""
        if isinstance(g, VarId):
            return self.jet(g, wrt.name)
        return self.jet(g.dep, g.suffix + wrt.name)

    def parse(self, text: str) -> Expr:
        from .parse import parse

        return parse(text, self)
