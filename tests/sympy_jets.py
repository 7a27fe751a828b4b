"""SymPy as the test suite's second engine for jet expressions.

Each dependent becomes a SymPy function of the independents and each jet
the matching ``Derivative``, so ``sympy.diff`` applies its own chain rule.
Results come back through the package's parser with every jet spelled as
its plain name.  SymPy is a test-only dependency; a test imports this
module with ``pytest.importorskip`` so it skips when SymPy is missing.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import sympy
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations
from sympy.printing.str import StrPrinter

from nlseverify.exprs import Context, Expr, render

_TRANSFORMS = standard_transformations + (convert_xor,)


class _Printer(StrPrinter):
    """SymPy's text, with a half-integer power ``eps**(5/2)`` spelled
    ``sqrt(eps)^(5)``, the only root the package's normal form holds."""

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.as_base_exp()
        if exp.is_Rational and exp.q == 2:
            return f"sqrt({self._print(base)})^({exp.p})"
        return super()._print_Pow(expr, rational)


class SympyJets:
    """Translation between one context's trees and SymPy expressions."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        letters = sorted(v.name for v in ctx.independents)
        self.symbols = {n: sympy.Symbol(n) for n in letters}
        funcs = {
            d.name: sympy.Function(d.name)(*(self.symbols[v.name] for v in ctx.independents))
            for d in ctx.dependents
        }
        jets = {
            f"{name}_{''.join(word)}": sympy.Derivative(f, *(self.symbols[c] for c in word))
            for name, f in funcs.items()
            for k in range(1, ctx.max_order + 1)
            for word in combinations_with_replacement(letters, k)
        }
        self.funcs = funcs
        self.locals = {
            **self.symbols,
            **{p.name: sympy.Symbol(p.name) for p in ctx.parameters},
            **funcs,
            **jets,
            "arctan": sympy.atan,
        }
        # xreplace matches whole subtrees first, so u_xx is never read through u.
        self.plain = {f: sympy.Symbol(n) for n, f in {**funcs, **jets}.items()}

    def to_sympy(self, e: Expr):
        return parse_expr(render(e), local_dict=self.locals, transformations=_TRANSFORMS)

    def from_sympy(self, s) -> Expr:
        text = _Printer().doprint(sympy.expand(s.xreplace(self.plain)))
        return self.ctx.parse(text.replace("**", "^"))

    def total_derivative(self, e: Expr, word: str) -> Expr:
        """``e`` differentiated by SymPy along each letter of ``word``."""
        s = self.to_sympy(e)
        for letter in word:
            s = sympy.diff(s, self.symbols[letter])
        return self.from_sympy(s)

    def same(self, a, b) -> bool:
        """SymPy expressions over jets agree as functions."""
        gap = (a - b).xreplace(self.plain)
        return sympy.expand(gap.rewrite(sympy.exp)) == 0
