"""Recursive-descent parser for the expression grammar.

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

The text is split by one ``findall`` of the token pattern; each token is
the tuple of its alternatives' groups (``INT``, ``IDENT``, operator,
stray character), so its kind is the group that matched.  Columns are
found again only to report an error.  ``expr`` and ``term`` parse their
rules; ``unary`` parses ``unary``, ``power``, ``exponent`` and ``atom``.
Parentheses, function calls and unary minus nest at most ``MAX_DEPTH``
levels deep; the token that opens a deeper level is a ``ParseError``.

A chain of terms is built by one ``add`` call and a chain of factors by
one ``mul`` call, a divisor entering as its ``-1`` power; the smart
constructors flatten and fold constants, so this gives the same tree as
folding the operands in pairs.
"""

from __future__ import annotations

import re

from .exprs import (
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
    neg,
    pow_,
    var,
)


class ParseError(Exception):
    """Syntax or resolution failure, carrying the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (column {pos + 1})")
        self.message = message
        self.pos = pos


_TOKEN_RE = re.compile(rf"(\d+)|({NAME.pattern}(?:_[a-z0-9]+)?)|([-+*/^()])|(\S)")
_END = ("", "", "", "")  # the token after the last; its value is ''
# Deepest nesting of parentheses, function calls and unary minus.  Deeper
# input would exhaust Python's default stack of 1000 frames: in the descent,
# or, from about 98 nested sines on, when two equal atoms are compared.
# 64 leaves room for the frames of the caller.
MAX_DEPTH = 64


class _Parser:
    """``toks[i]`` is the next token, a tuple ``(int, ident, op, bad)`` with
    one non-empty entry, or ``_END``."""

    def __init__(self, text: str, ctx: Context) -> None:
        self.text, self.ctx = text, ctx
        self.toks = toks = _TOKEN_RE.findall(text)
        for k, (*_, bad) in enumerate(toks):
            if bad:
                raise self.error(f"unexpected character {bad!r}", k)
        toks.append(_END)
        self.i = self.depth = 0

    def error(self, message: str, k: int) -> ParseError:
        """The error at token ``k``, with that token's column."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, starts[k] if k < len(starts) else len(self.text))

    def enter(self, k: int) -> None:
        """Open one nesting level at token ``k``; :meth:`unary` closes it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"expression nests deeper than {MAX_DEPTH} levels", k)

    def expr(self) -> Expr:
        terms = [self.term()]
        while (op := self.toks[self.i][2]) == "+" or op == "-":
            self.i += 1
            rhs = self.term()
            terms.append(rhs if op == "+" else neg(rhs))
        return terms[0] if len(terms) == 1 else add(*terms)

    def term(self) -> Expr:
        factors = [self.unary()]
        while (op := self.toks[self.i][2]) == "*" or op == "/":
            k = self.i
            self.i += 1
            rhs = self.unary()
            if op == "/":
                try:
                    rhs = pow_(rhs, -1)
                except ZeroDivisionError:
                    raise self.error("division by zero", k) from None
            factors.append(rhs)
        return factors[0] if len(factors) == 1 else mul(*factors)

    def unary(self) -> Expr:
        toks, k = self.toks, self.i
        number, name, op, _ = toks[k]
        self.i = k + 1
        if op == "-":
            self.enter(k)
            e = neg(self.unary())
            self.depth -= 1
            return e
        if number:
            base = const(int(number))
        elif name and name not in FUNCTION_NAMES:
            base = self.ctx.nodes.get(name) or self.ident(name, k)
        elif name or op == "(":  # FUNC '(' expr ')' | '(' expr ')'
            self.enter(k)
            if name:
                if toks[k + 1][2] != "(":
                    raise self.error(f"expected '(' after function name {name!r}", k)
                self.i += 1
            base = self.expr()
            if toks[self.i][2] != ")":
                raise self.error("expected ')'", self.i)
            self.i += 1
            self.depth -= 1
            if name:
                base = func(name, base)
        else:
            raise self.error(f"unexpected {op!r}", k)
        caret = self.i
        if toks[caret][2] != "^":
            return base
        # exponent := ['-'] INT | '(' ['-'] INT ')'
        i = caret + 1
        parens = toks[i][2] == "("
        negative = toks[i + parens][2] == "-"
        i += parens + negative
        digits = toks[i][0]
        if not digits:
            raise self.error("exponent must be an integer literal", i)
        i += 1
        if parens:
            if toks[i][2] != ")":
                raise self.error("expected ')'", i)
            i += 1
        self.i = i
        try:
            return pow_(base, -int(digits) if negative else int(digits))
        except ZeroDivisionError:
            raise self.error("zero raised to a negative power", caret) from None

    def ident(self, name: str, k: int) -> Expr:
        """The node of an identifier the context has not resolved yet; the
        context keeps it, and an identifier that fails raises every time."""
        base, _, suffix = name.partition("_")
        ref = self.ctx.lookup(base)
        if ref is None:
            raise self.error(f"unknown identifier {base!r}", k)
        if suffix:
            if ref.kind != DEPENDENT:
                raise self.error(f"cannot take derivatives of {ref.kind} variable {base!r}", k)
            try:
                ref = self.ctx.jet(ref, suffix)
            except (ValueError, ExprError) as exc:
                raise self.error(str(exc), k) from None
        node = self.ctx.nodes[name] = var(ref)
        return node


def parse(text: str, ctx: Context) -> Expr:
    """Parse ``text`` against the declarations in ``ctx``."""
    parser = _Parser(text, ctx)
    e = parser.expr()
    if (tok := parser.toks[parser.i]) is not _END:
        raise parser.error(f"unexpected trailing {''.join(tok)!r}", parser.i)
    return e
