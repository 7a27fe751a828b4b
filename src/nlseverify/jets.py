"""Jet-space calculus and the verification predicates built on it.

Total derivatives, Euler operators, prolongation of point vector fields,
and on-shell reduction against an evolution form.  The four predicate
functions at the bottom each return exact normal forms whose zeroness is
the pass criterion:

* ``multiplier_condition``: the Euler operator of a multiplier
  combination annihilates identically (off shell).
* ``divergence_match``: a density/flux pair's total divergence equals the
  multiplier combination identically (off shell).
* ``symmetry_invariance``: a prolonged field maps each equation to zero
  modulo the equations (on shell).
* ``association_residual``: the conserved vector is invariant under the
  field in the divergence sense (on shell).

These are deliberately independent routes; none is derived from another,
so agreement between them is evidence rather than tautology.

Everything works on the normalizer's working form (``normal.Form``,
monomial -> rational coefficient), so no product tree is built only to be
expanded again: each problem-file entry is normalized once, on first use,
and each predicate leaves through ``normalize`` once.  One rule,
:func:`derivation` (each generator to its image, Leibniz over each
monomial, the chain rule through the sin, cos and sqrt atoms), carries the
total derivative, the explicit partial, the Euler operator, prolongation
and the field action.  A :class:`JetTable` derives each jet's image from
its prefix's when first asked and keeps it; the canonical pushforward, the
classify candidates (through :func:`jet_table`) and prolongation share it.

``divergence_match``, ``association_residual`` and the canonical
pushforward (a substitution) are linear in the conserved vector ``T``,
so they run on ``d*T``, scaled by ``normal.integral`` to int coefficients
(the bundled ones are halves and quarters), and ``normalize`` divides by
``d`` once at the end: the same exact value by a cheaper route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .exprs import (
    DEPENDENT,
    Context,
    Expr,
    Frozen,
    Gen,
    JetVar,
    VarId,
    collect_refs,
    jet_order,
    ref_sort_key,
)
from .normal import (
    Atom,
    Form,
    NormalizationError,
    PolyNF,
    accumulate,
    as_form,
    integral,
    mono_mul,
    mul_forms,
    normalize,
    pow_form,
    trig_form,
)

_UNIT: Form = {frozenset(): 1}


class EntryError(ValueError):
    """The entry ``key`` of ``section`` (keyed as in a problem file) does not
    normalize, or is a rule holding a time derivative, an equation the rules
    do not solve, or a symmetry coefficient holding a jet past its bound."""

    def __init__(self, message: str, section: str, key: str) -> None:
        super().__init__(message)
        self.section, self.key = section, key


def _entry_form(e: Expr, key: str, section: str | None = None) -> Form:
    """``as_form(e)`` for the entry ``key``.  A system's entry, in ``section``,
    fails with an EntryError the loader places at its line; a record's entry
    is normalized after the loader, so its error names the key instead."""
    try:
        return as_form(e)
    except NormalizationError as exc:
        if section:
            raise EntryError(str(exc), section, key) from None
        raise NormalizationError(f"{key}: {exc}") from None


# ---------------------------------------------------------------------------
# calculus on working forms


def form_generators(f: Form) -> set[Gen]:
    """The variables and jets of the nonzero terms, inside trig atoms too."""
    out: set[Gen] = set()
    for m, c in f.items():
        if c:
            for g, _ in m:
                out |= form_generators(g.arg.form()) if isinstance(g, Atom) else {g}
    return out


def derivation(f: Form, image: Callable[[Gen], Form]) -> Form:
    """The derivation sending each variable or jet ``g`` to ``image(g)``:
    a term ``c*m`` gives ``k*c*m/g * image(g)`` for each ``g^k`` in ``m``,
    and the chain rule sends ``sin(A)`` to ``cos(A)*D(A)`` and ``cos(A)``
    to ``-sin(A)*D(A)``.  A generator is asked for its image only where
    its term is nonzero."""
    images: dict = {}
    out: Form = {}
    for m, c in f.items():
        if not c:
            continue
        for g, k in m:
            if g not in images:
                images[g] = _chain(g, image) if isinstance(g, Atom) else image(g)
            if images[g]:
                rest = m - {(g, k)} if k == 1 else (m - {(g, k)}) | {(g, k - 1)}
                ck = c * k
                for m2, c2 in images[g].items():
                    mm = mono_mul(rest, m2)
                    out[mm] = out.get(mm, 0) + ck * c2
    return {m: c for m, c in out.items() if c}


def _chain(atom: Atom, image: Callable[[Gen], Form]) -> Form:
    if atom.fn == "sqrt":  # the argument is a parameter, so this is 0 in practice
        partner, k = frozenset({(atom, -1)}), Fraction(1, 2)
    else:
        partner = frozenset({(Atom("cos" if atom.fn == "sin" else "sin", atom.arg), 1)})
        k = 1 if atom.fn == "sin" else -1
    return {mono_mul(m, partner): k * c for m, c in derivation(atom.arg.form(), image).items()}


def explicit_partial(f: Form, g: Gen) -> Form:
    """The partial derivative in ``g`` with every other generator held
    fixed; a jet is its own generator, so the partial of ``u_x`` in ``u`` is 0."""
    return derivation(f, lambda h: _UNIT if h == g else {})


def total_derivative(f: Form, wrt: VarId, ctx: Context) -> Form:
    """Total derivative D_i along an independent: ``u_J`` goes to
    ``u_{J,i}``, ``i`` itself to 1, every other variable to 0."""

    def image(g: Gen) -> Form:
        if isinstance(g, JetVar) or g.kind == DEPENDENT:
            return {frozenset({(ctx.bump(g, wrt), 1)}): 1}
        return _UNIT if g == wrt else {}

    return derivation(f, image)


def iterated_derivative(f: Form, word: str, ctx: Context) -> Form:
    """Total derivatives along the letters of ``word``, first letter first."""
    for letter in word:
        f = total_derivative(f, ctx[letter], ctx)
    return f


def euler_operator(f: Form, dep: VarId, ctx: Context) -> Form:
    """Variational derivative with respect to one dependent variable:
    sum over jets J of (-D)_J applied to the partial of ``f`` at u_J."""
    if dep.kind != DEPENDENT:
        raise ValueError(f"Euler operator needs a dependent variable, not {dep.name}")
    out: Form = {}
    for g in sorted(form_generators(f), key=ref_sort_key):
        if g == dep or (isinstance(g, JetVar) and g.dep == dep):
            word = g.suffix if isinstance(g, JetVar) else ""
            accumulate(out, iterated_derivative(explicit_partial(f, g), word, ctx), (-1) ** len(word))
    return out


def substitute_forms(f: Form, images: Mapping[Gen, Form]) -> Form:
    """Simultaneous substitution of forms for generators.  An atom whose
    argument changes is rebuilt from its new argument by ``trig_form``;
    a sqrt atom's argument is a parameter, which no caller substitutes."""
    memo: dict = {}

    def power(g, k: int) -> Form:
        if g not in memo:
            memo[g] = images.get(g)
            if isinstance(g, Atom) and images.keys() & form_generators(g.arg.form()):
                arg = normalize(substitute_forms(g.arg.form(), images))
                memo[g] = trig_form(g.fn, arg)
        return {frozenset({(g, k)}): 1} if memo[g] is None else pow_form(memo[g], k)

    out: Form = {}
    for m, c in f.items():
        if c:
            term: Form = {frozenset(): c}
            for g, k in m:
                term = mul_forms(term, power(g, k))
            accumulate(out, term)
    return out


class JetTable(dict):
    """Images of generators; a missing jet ``u_{J,i}`` of ``ctx`` gets
    ``derive(table, u_J, i)`` from its prefix (``u`` at order one) and
    keeps it, so each jet and each of its prefixes is derived once.
    ``derive`` is handed the table rather than closing over it, so the
    table is no reference cycle and is freed as soon as it is dropped."""

    def __init__(
        self, ctx: Context, images: Mapping[Gen, Form], derive: Callable[[JetTable, Gen, str], Form]
    ):
        super().__init__(images)
        self.ctx, self.derive = ctx, derive

    def __missing__(self, g: JetVar) -> Form:
        parent = self.ctx.jet(g.dep, g.suffix[:-1]) if g.total_order > 1 else g.dep
        self[g] = out = self.derive(self, parent, g.suffix[-1])
        return out


def jet_table(
    ctx: Context,
    images: Mapping[Gen, Form],
    generators: Iterable[Iterable[Gen]],
    derive: Callable[[Form, str], Form],
) -> JetTable:
    """``images`` extended by every jet of a substituted dependent in ``generators``,
    one set per entry; the image of ``u_{J,i}`` is ``derive(image of u_J, i)``."""
    table = JetTable(ctx, images, lambda table, parent, letter: derive(table[parent], letter))
    for gens in generators:
        for g in sorted(gens, key=ref_sort_key):
            if isinstance(g, JetVar) and g.dep in images:
                table[g]  # derived on first request
    return table


# ---------------------------------------------------------------------------
# the PDE system in evolution form


class PDESystem(Frozen):
    """Equations plus a consistent evolution form used for on-shell work.

    Exactly two independent variables: the first is time, the second space.
    ``equations`` are labeled left-hand sides understood as ``expr = 0``;
    ``evolution`` gives each dependent's time derivative as a spatial
    expression.  Construction verifies the evolution form actually solves
    every equation identically, so the two presentations cannot drift
    apart in a problem file.
    """

    _fields = ("ctx", "time", "space", "equations", "evolution")

    @classmethod
    def build(
        cls,
        ctx: Context,
        equations: Sequence[tuple[str, Expr]],
        evolution: Mapping[str, Expr],
    ) -> "PDESystem":
        if len(ctx.independents) != 2:
            raise ValueError("system requires exactly two independent variables")
        t, space = ctx.independents
        evo: dict[VarId, Expr] = {}
        for name, rhs in evolution.items():
            dep = ctx[name]
            for g in collect_refs(rhs):
                if isinstance(g, JetVar) and g.order_in(t.name) > 0:
                    msg = f"evolution rule for {name} contains the time derivative {g.name}"
                    raise EntryError(msg, "evolution", f"{name}_{t.name}")
            evo[dep] = rhs
        missing = [d.name for d in ctx.dependents if d not in evo]
        if missing:
            raise ValueError(f"no evolution rule for {', '.join(missing)}")
        system = cls(ctx, t, space, tuple(equations), evo)
        for (label, _), eq in zip(system.equations, system.equation_forms):
            if not normalize(system.reduce(eq)).is_zero:
                raise EntryError(f"evolution form does not solve equation {label}", "equations", label)
        return system

    @cached_property
    def equation_forms(self) -> tuple[Form, ...]:
        return tuple(_entry_form(eq, label, "equations") for label, eq in self.equations)

    @cached_property
    def _bindings(self) -> dict[JetVar, Form]:
        """Time jet -> its on-shell value; those of order one are the rules."""
        time = self.time.name
        return {self.ctx.jet(d, time): _entry_form(r, f"{d.name}_{time}", "evolution")
                for d, r in self.evolution.items()}

    def _binding(self, g: JetVar) -> Form:
        """The rule differentiated along ``g``'s word less one time letter,
        itself reduced on shell; derived once per system."""
        if g not in self._bindings:
            rule = self._bindings[self.ctx.jet(g.dep, self.time.name)]
            word = g.suffix.replace(self.time.name, "", 1)
            self._bindings[g] = self.reduce(iterated_derivative(rule, word, self.ctx))
        return self._bindings[g]

    def reduce(self, f: Form) -> Form:
        """Eliminate every time derivative using the evolution rules.  A
        rule holds no time jet, so a binding needs only bindings of lower
        time order, and one substitution of reduced bindings leaves none."""
        time = self.time.name
        gens = sorted(form_generators(f), key=ref_sort_key)
        targets = {g: self._binding(g) for g in gens if isinstance(g, JetVar) and g.order_in(time)}
        return substitute_forms(f, targets) if targets else f


# ---------------------------------------------------------------------------
# labeled ingredient records; each entry is normalized once, on first use


class MultiplierPair(Frozen):
    """One multiplier per equation; combination q1*G1 + q2*G2 + ..."""

    _fields = ("label", "q")

    @cached_property
    def forms(self) -> tuple[Form, ...]:
        return tuple(_entry_form(qa, f"{self.label}_q{i}") for i, qa in enumerate(self.q, 1))

    def combination(self, system: PDESystem) -> Form:
        out: Form = {}
        for qa, eq in zip(self.forms, system.equation_forms, strict=True):
            accumulate(out, mul_forms(qa, eq))
        return out


class ConservedVector(Frozen):
    """Density/flux pair for a two-variable system."""

    _fields = ("label", "density", "flux")

    @cached_property
    def forms(self) -> tuple[Form, Form]:
        return (
            _entry_form(self.density, f"{self.label}_density"),
            _entry_form(self.flux, f"{self.label}_flux"),
        )


class VectorField(Frozen):
    """Point vector field: coefficients on the base and first-order arrows.

    ``xi`` maps independent names to coefficients, ``eta`` dependent names;
    omitted entries are zero.  Coefficients may involve the plain variables
    (and, for the arrows, first-order jets), nothing deeper.
    """

    _fields = ("label", "xi", "eta")

    def validate(self, ctx: Context) -> None:
        """ValueError for an undeclared variable's coefficient; EntryError for
        one whose normal form holds a jet past the bound."""
        for kind, part, declared, bound, fault in (
            ("xi", self.xi, ctx.independents, 0, "involves jet variables"),
            ("eta", self.eta, ctx.dependents, 1, "exceeds first order"),
        ):
            for name, e in part.items():
                if name not in {v.name for v in declared}:
                    raise ValueError(f"{self.label}: {kind} component for unknown {name!r}")
                try:  # a tree's jets bound its form's; a tree that does not normalize keeps them
                    past = jet_order(e) > bound and any(
                        isinstance(g, JetVar) and g.total_order > bound for g in form_generators(as_form(e))
                    )
                except NormalizationError:
                    past = True
                if past:
                    key = f"{self.label}_{kind}_{name}"
                    raise EntryError(f"{self.label}: {kind}[{name}] {fault}", "symmetries", key)

    @cached_property
    def forms(self) -> dict[str, Form]:
        """Every given coefficient, xi and eta alike, keyed by its variable."""
        return {
            name: _entry_form(e, f"{self.label}_{kind}_{name}")
            for kind, part in (("xi", self.xi), ("eta", self.eta))
            for name, e in part.items()
        }


class ProlongedField(Frozen):
    _fields = ("base", "zeta", "dxi")  # zeta: a JetTable; dxi: D_i xi^k, keyed (i, k) by letter

    def coefficient(self, g: Gen) -> Form:
        if not isinstance(g, JetVar):
            return self.base.forms.get(g.name, {})  # parameters do not move
        return self.zeta[g]


def prolong(fieldv: VectorField, ctx: Context) -> ProlongedField:
    """Standard prolongation: zeta_{J,i} = D_i zeta_J - sum_k D_i(xi^k) u_{J,k}.

    The coefficients are a :class:`JetTable` over each dependent's eta:
    each is derived when the field first acts on its jet, so the context's
    jet cap is the only bound (a JetOrderError from ``ctx.bump``).
    """
    fieldv.validate(ctx)
    given = fieldv.forms
    indep = ctx.independents
    dxi = {(i.name, k.name): iterated_derivative(given.get(k.name, {}), i.name, ctx)
           for i in indep for k in indep}

    def derive(zeta: JetTable, parent: Gen, letter: str) -> Form:
        z = iterated_derivative(zeta[parent], letter, ctx)
        for k in indep:
            jet = {frozenset({(ctx.bump(parent, k), 1)}): 1}
            accumulate(z, mul_forms(dxi[letter, k.name], jet), -1)
        return z

    zeta = JetTable(ctx, {dep: given.get(dep.name, {}) for dep in ctx.dependents}, derive)
    return ProlongedField(fieldv, zeta, dxi)


def apply_field(prol: ProlongedField, f: Form) -> Form:
    """Action of the prolonged field on a form."""
    return derivation(f, prol.coefficient)


# ---------------------------------------------------------------------------
# verification predicates


def multiplier_condition(system: PDESystem, pair: MultiplierPair) -> dict[str, PolyNF]:
    """Euler operator of the multiplier combination, per dependent.

    Zero for every dependent (as a polynomial identity, off shell) is
    exactly the condition for the combination to be a total divergence.
    """
    combo = pair.combination(system)
    return {
        d.name: normalize(euler_operator(combo, d, system.ctx))
        for d in system.ctx.dependents
    }


def divergence_match(
    system: PDESystem, pair: MultiplierPair, vec: ConservedVector
) -> PolyNF:
    """D_t(density) + D_x(flux) - multiplier combination, normalized."""
    (d, density, flux, combo), ctx = integral(*vec.forms, pair.combination(system)), system.ctx
    out = iterated_derivative(density, system.time.name, ctx)
    accumulate(out, iterated_derivative(flux, system.space.name, ctx))
    return normalize(accumulate(out, combo, -1), d)


def symmetry_invariance(system: PDESystem, fieldv: VectorField) -> dict[str, PolyNF]:
    """Prolonged action on each equation, reduced on shell and normalized."""
    prol = prolong(fieldv, system.ctx)
    return {
        label: normalize(system.reduce(apply_field(prol, eq)))
        for (label, _), eq in zip(system.equations, system.equation_forms)
    }


def association_residual(
    system: PDESystem, prol: ProlongedField, vec: ConservedVector
) -> dict[str, PolyNF]:
    """Invariance of a conserved vector under a symmetry, on shell.

    Components of  prX(T^i) + T^i D_k xi^k - T^k D_k xi^i  reduced against
    the evolution form; both must vanish for the pair to be associated.
    ``prol`` keeps each coefficient it derives, so a caller checking one
    field against many vectors prolongs it once.
    """
    t, x = system.time.name, system.space.name
    d, density, flux = integral(*vec.forms)
    components = {t: density, x: flux}
    dxi = prol.dxi
    trace = accumulate(dict(dxi[t, t]), dxi[x, x])
    out = {}
    for i, t_i in components.items():
        comp = accumulate(apply_field(prol, t_i), mul_forms(t_i, trace))
        for k, t_k in components.items():
            accumulate(comp, mul_forms(t_k, dxi[k, i]), -1)
        out[i] = normalize(system.reduce(comp), d)
    return out
