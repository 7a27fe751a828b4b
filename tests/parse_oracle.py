"""Reference parser: the recursive-descent parser the package used before
its flatter rewrite, kept verbatim as the oracle ``nlseverify.parse`` is held
to (equal trees, or the same error class, message and column, on every
input).  Only ``neg`` is spelled out here as it was then, so that the
oracle does not share the package's fast path.  The original docstring
follows.

Recursive-descent parser for the expression grammar.

Grammar (whitespace insensitive)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := INT | IDENT | FUNC '(' expr ')' | '(' expr ')'

Identifiers are ``[a-z][a-z0-9]*`` (``exprs.NAME``, which also checks the
declared names) optionally followed by ``_sfx`` where ``sfx`` is a word
over the declared independent-variable letters; such a name is a jet
variable and its suffix is canonicalized alphabetically (``u_xt`` parses
to the same node as ``u_tx``).  Integer literals joined by ``/`` fold to
exact rationals, so ``3/2`` is the rational three halves.

A chain of terms is built by one ``add`` call and a chain of factors by
one ``mul`` call, a divisor entering as its ``-1`` power; the smart
constructors flatten and fold constants, so this gives the same tree as
folding the operands in pairs.
"""

from __future__ import annotations

import re

from nlseverify.exprs import (
    FUNCTION_NAMES,
    NAME,
    Context,
    DEPENDENT,
    Expr,
    ExprError,
    add,
    const,
    func,
    mul,
    pow_,
    var,
)


def neg(e: Expr) -> Expr:
    return mul(const(-1), e)


class ParseError(Exception):
    """Syntax or resolution failure, carrying the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (column {pos + 1})")
        self.message = message
        self.pos = pos


_TOKEN_RE = re.compile(
    rf"(?P<INT>\d+)|(?P<IDENT>{NAME.pattern}(?:_[a-z0-9]+)?)|(?P<OP>[-+*/^()])|(?P<BAD>\S)"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, pos)`` triples, kind ``INT``, ``IDENT``, ``OP`` or a
    final ``END``.  An operator is told by its value alone: no other
    token's value is an operator character."""
    out = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, value, pos in out:
        if kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", pos)
    out.append(("END", "", len(text)))
    return out


class _Parser:
    """One method per grammar rule; ``i`` indexes the next token."""

    def __init__(self, text: str, ctx: Context) -> None:
        self.ctx = ctx
        self.toks = tokenize(text)
        self.i = 0

    def expr(self) -> Expr:
        terms = [self.term()]
        while (op := self.toks[self.i][1]) in ("+", "-"):
            self.i += 1
            rhs = self.term()
            terms.append(rhs if op == "+" else neg(rhs))
        return terms[0] if len(terms) == 1 else add(*terms)

    def term(self) -> Expr:
        factors = [self.unary()]
        while (tok := self.toks[self.i])[1] in ("*", "/"):
            self.i += 1
            rhs = self.unary()
            if tok[1] == "/":
                try:
                    rhs = pow_(rhs, -1)
                except ZeroDivisionError:
                    raise ParseError("division by zero", tok[2]) from None
            factors.append(rhs)
        return factors[0] if len(factors) == 1 else mul(*factors)

    def unary(self) -> Expr:
        if self.toks[self.i][1] == "-":
            self.i += 1
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        _, value, pos = self.toks[self.i]
        if value != "^":
            return base
        self.i += 1
        exponent = self.exponent()
        try:
            return pow_(base, exponent)
        except ZeroDivisionError:
            raise ParseError("zero raised to a negative power", pos) from None

    def exponent(self) -> int:
        toks, i = self.toks, self.i
        parens = toks[i][1] == "("
        negative = toks[i + parens][1] == "-"
        i += parens + negative
        kind, value, pos = toks[i]
        if kind != "INT":
            raise ParseError("exponent must be an integer literal", pos)
        i += 1
        if parens:
            if toks[i][1] != ")":
                raise ParseError("expected ')'", toks[i][2])
            i += 1
        self.i = i
        return -int(value) if negative else int(value)

    def atom(self) -> Expr:
        kind, value, pos = self.toks[self.i]
        self.i += 1
        if kind == "INT":
            return const(int(value))
        if kind == "IDENT" and value not in FUNCTION_NAMES:
            return self.ident(value, pos)
        if kind == "IDENT":
            if self.toks[self.i][1] != "(":
                raise ParseError(f"expected '(' after function name {value!r}", pos)
            self.i += 1
        elif value != "(":
            raise ParseError(f"unexpected {value!r}", pos)
        e = self.expr()
        _, close, at = self.toks[self.i]
        if close != ")":
            raise ParseError("expected ')'", at)
        self.i += 1
        return func(value, e) if kind == "IDENT" else e

    def ident(self, name: str, pos: int) -> Expr:
        base, _, suffix = name.partition("_")
        ref = self.ctx.lookup(base)
        if ref is None:
            raise ParseError(f"unknown identifier {base!r}", pos)
        if not suffix:
            return var(ref)
        if ref.kind != DEPENDENT:
            raise ParseError(f"cannot take derivatives of {ref.kind} variable {base!r}", pos)
        try:
            return var(self.ctx.jet(ref, suffix))
        except (ValueError, ExprError) as exc:
            raise ParseError(str(exc), pos) from None


def parse(text: str, ctx: Context) -> Expr:
    """Parse ``text`` against the declarations in ``ctx``."""
    parser = _Parser(text, ctx)
    e = parser.expr()
    kind, value, pos = parser.toks[parser.i]
    if kind != "END":
        raise ParseError(f"unexpected trailing {value!r}", pos)
    return e
