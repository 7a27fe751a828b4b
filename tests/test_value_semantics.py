"""The records of the package are plain classes with value semantics.

Nodes, generators, normal forms and check records built apart from equal
fields are equal, hash alike and find each other in a dict; a field that
differs, or a different class with the same fields, makes them unequal.
Generators and trig atoms are interned: built apart from equal fields,
they are one object, which compares and hashes by identity.  A context
makes one object per jet, and the generators of two contexts are that
same object.  Every immutable record refuses to have a field assigned or
deleted, and ``Grid`` checks its arguments with the same messages.

A record that declares its fields is built from all of them, given
positionally: a wrong count is one ``TypeError`` that names the fields,
the same for every kind of record, and a keyword is Python's own
``TypeError``.  Every other ``Value`` hashes as the tuple of its fields.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest

from nlseverify.exprs import (
    DEPENDENT,
    INDEPENDENT,
    PARAMETER,
    Const,
    Frozen,
    FuncApp,
    Interned,
    JetOrderError,
    JetVar,
    Pow,
    Prod,
    Program,
    Sum,
    Value,
    Var,
    VarId,
    compile_numeric,
)
from nlseverify.jets import VectorField, prolong
from nlseverify.normal import Atom, normalize
from nlseverify.numerics import Grid
from nlseverify.problem import load_problem
from nlseverify.reduction import (
    CandidateReport,
    DrawResult,
    SolutionCandidate,
    build_canonical_transform,
    reduced_ode,
)
from nlseverify.report import Record


def u() -> VarId:
    return VarId(DEPENDENT, "u")


EQUAL_BUILDS = {
    "VarId": u,
    "JetVar": lambda: JetVar(u(), "tx"),
    "Const": lambda: Const(Fraction(-3, 4)),
    "Var": lambda: Var(u()),
    "Sum": lambda: Sum((Var(u()), Const(Fraction(1)))),
    "Prod": lambda: Prod((Const(Fraction(2)), Var(JetVar(u(), "x")))),
    "Pow": lambda: Pow(Var(u()), -2),
    "FuncApp": lambda: FuncApp("sin", Var(u())),
    "Atom": lambda: Atom("cos", normalize(Sum((Var(u()), Var(JetVar(u(), "x")))))),
    "PolyNF": lambda: normalize(Prod((FuncApp("sin", Var(u())), Var(JetVar(u(), "x"))))),
    "Record": lambda: Record("verify.x1", "x1", "pass", "0", "pr(X)[g] = 0"),
}

DIFFERENT_BUILDS = {
    "VarId": lambda: VarId(PARAMETER, "u"),
    "JetVar": lambda: JetVar(u(), "xx"),
    "Const": lambda: Const(Fraction(3, 4)),
    "Var": lambda: Var(JetVar(u(), "x")),
    "Sum": lambda: Sum((Const(Fraction(1)), Var(u()))),
    "Prod": lambda: Prod((Const(Fraction(3)), Var(JetVar(u(), "x")))),
    "Pow": lambda: Pow(Var(u()), 2),
    "FuncApp": lambda: FuncApp("cos", Var(u())),
    "Atom": lambda: Atom("sin", normalize(Sum((Var(u()), Var(JetVar(u(), "x")))))),
    "PolyNF": lambda: normalize(Prod((FuncApp("cos", Var(u())), Var(JetVar(u(), "x"))))),
    "Record": lambda: Record("verify.x1", "x1", "fail", "0", "pr(X)[g] = 0"),
}


INTERNED = {"VarId", "JetVar", "Atom"}


@pytest.mark.parametrize("name", EQUAL_BUILDS)
def test_equal_fields_make_equal_values(name):
    build = EQUAL_BUILDS[name]
    a, b = build(), build()
    assert (a is b) == (name in INTERNED)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: name}[b] == name
    other = DIFFERENT_BUILDS[name]()
    assert a != other and not a == other
    assert a != (a,) and a.__eq__(object()) is NotImplemented


def test_generator_hash_is_the_identity_hash():
    """Interned, a generator or atom needs no hash of its own: ``object``'s
    equality and hash, by identity, are the value semantics."""
    v, jet = u(), JetVar(u(), "x")
    atom = EQUAL_BUILDS["Atom"]()
    assert hash(v) == object.__hash__(v) and hash(jet) == object.__hash__(jet)
    assert hash(atom) == object.__hash__(atom)
    for kind, name in ((INDEPENDENT, "t"), (PARAMETER, "beta")):
        g = VarId(kind, name)
        assert hash(g) == object.__hash__(g) and g is VarId(kind, name)
    for suffix in ("t", "tx", "xxxx"):
        g = JetVar(v, suffix)
        assert hash(g) == object.__hash__(g) and g is JetVar(v, suffix)
    for cls in (VarId, JetVar, Atom):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_a_context_makes_one_object_per_jet(problem):
    ctx = problem.ctx
    uu, t, x = ctx["u"], ctx["t"], ctx["x"]
    u_tx = ctx.jet(uu, "xt")
    assert u_tx is ctx.jet(uu, "tx") is ctx.jet("u", "xt")
    assert ctx.bump(ctx.jet(uu, "t"), x) is u_tx is ctx.bump(ctx.jet(uu, "x"), t)
    assert ctx.bump(uu, x) is ctx.jet(uu, "x")
    assert u_tx == JetVar(u(), "tx") and hash(u_tx) == hash(JetVar(u(), "tx"))


def test_generators_of_two_loads_are_equal_values():
    first, second = load_problem().ctx, load_problem().ctx
    for name in ("t", "x", "u", "v", "beta"):
        assert first[name] is second[name]
        assert first[name] == second[name] and hash(first[name]) == hash(second[name])
    a, b = first.jet("u", "xt"), second.jet("u", "tx")
    assert a is b and a == b and hash(a) == hash(b)
    assert {a: "u_tx"}[b] == "u_tx"


@pytest.mark.parametrize(
    "dep, suffix, error, message",
    [
        ("u", "xy", ValueError, "bad derivative suffix 'xy': 'y' is not an independent variable"),
        ("u", "", ValueError, "empty derivative suffix"),
        ("u", "xxxxt", JetOrderError, "jet order 5 exceeds maximum 4"),
        ("beta", "x", ValueError, "cannot take derivatives of non-dependent 'beta'"),
    ],
)
def test_a_refused_jet_is_refused_on_every_request(problem, dep, suffix, error, message):
    ctx = problem.ctx
    for _ in range(3):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ctx.jet(dep, suffix)
    deep = ctx.jet("u", "xxxx")
    for _ in range(3):
        with pytest.raises(JetOrderError):
            ctx.bump(deep, ctx["t"])


def test_generators_refuse_their_kept_hash_being_set(problem):
    for g in (problem.ctx["u"], problem.ctx.jet("u", "x")):
        before = hash(g)
        key = g.key
        for name in ("_hash", "kind", "dep", "key"):
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
        for name in ("_hash", "key"):
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert hash(g) == before and g.key is key


def test_a_sum_is_not_a_product_of_the_same_tuple():
    t = (Var(u()), Const(Fraction(2)))
    assert Sum(t) != Prod(t) and Prod(t) != Sum(t)
    assert Sum(t) == Sum(t)


def frozen_values(problem):
    """One instance of every class whose fields are fixed at construction,
    with the name of one of its fields."""
    system, ctx = problem.system, problem.ctx
    nf = normalize(ctx.parse("sin(u)*u_x"))
    atom = next(g for m, _ in nf.terms for g, _ in m if isinstance(g, Atom))
    transform = build_canonical_transform(system)
    draw = DrawResult({"beta": 1.0}, 0.0, 0.0, "pass", "")
    return [
        (ctx["u"], "name"),
        (ctx.jet("u", "x"), "suffix"),
        (Const(Fraction(1)), "value"),
        (Var(ctx["u"]), "ref"),
        (Sum((Var(ctx["u"]), Var(ctx["v"]))), "terms"),
        (Prod((Var(ctx["u"]), Var(ctx["v"]))), "factors"),
        (Pow(Var(ctx["u"]), 2), "exponent"),
        (FuncApp("sin", Var(ctx["u"])), "arg"),
        (atom, "fn"),
        (nf, "terms"),
        (system, "equations"),
        (problem.multipliers[0], "q"),
        (problem.conserved[0], "density"),
        (problem.symmetries[0], "xi"),
        (prolong(problem.symmetries[0], ctx), "zeta"),
        (transform, "theta"),
        (reduced_ode(transform), "curvature"),
        (problem.candidates[0], "label"),
        (draw, "verdict"),
        (CandidateReport(problem.candidates[0], (draw,), "pass"), "verdict"),
        (problem, "path"),
        (compile_numeric([ctx.parse("u + 1")], {}, [ctx["u"]]), "code"),
        (Grid(16, 1.0), "n"),
        (Record("a", "b", "c", "d", "e"), "verdict"),
    ]


def test_frozen_classes_refuse_assignment(problem):
    values = frozen_values(problem)
    assert len({type(value) for value, _ in values}) == 24
    for value, field in values:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.added = None
        assert getattr(value, field) is before, type(value).__name__


@pytest.mark.parametrize(
    "n, length, message",
    [
        (100, 1.0, "grid size 100 must be a power of two, at least 16"),
        (8, 1.0, "grid size 8 must be a power of two, at least 16"),
        (64, math.inf, "grid length must be positive and finite, got inf"),
        (64, 0.0, "grid length must be positive and finite, got 0.0"),
        (64, -1.0, "grid length must be positive and finite, got -1.0"),
        (64, math.nan, "grid length must be positive and finite, got nan"),
        (256, 1e-300, "grid spacing 3.91e-303 squares to zero in floating point"),
    ],
)
def test_grid_validation_messages(n, length, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Grid(n, length)


def fields_of(value) -> list:
    return [getattr(value, field) for field in value._fields]


def test_fourteen_records_are_built_from_their_declared_fields(problem):
    """Thirteen by ``Frozen.__init__``; the interned ``Atom`` by its
    ``__new__``, which gives back the one object with those fields.  Every
    field is given positionally; a keyword is Python's own ``TypeError``."""
    values = [
        value
        for value, _ in frozen_values(problem)
        if type(value).__init__ is Frozen.__init__ or type(value) is Atom
    ]
    assert sorted(type(v).__name__ for v in values) == sorted(
        "Atom PolyNF PDESystem MultiplierPair ConservedVector VectorField ProlongedField CanonicalTransform "
        "ReducedODE SolutionCandidate DrawResult CandidateReport Problem Program".split()
    )
    for value in values:
        cls, fields = type(value), fields_of(value)
        built = cls(*fields)
        if isinstance(value, Interned):
            assert built is value
        else:
            assert list(vars(built)) == list(cls._fields)
        assert all(a is b for a, b in zip(fields_of(built), fields, strict=True)), cls.__name__
        with pytest.raises(TypeError, match=r"^\w+\.__(init|new)__\(\) got an unexpected keyword argument"):
            cls(*fields[1:], **{cls._fields[0]: fields[0]})


def test_every_declared_field_is_required(problem):
    """No field has a default: leaving any out is the arity ``TypeError``."""
    cand = problem.candidates[0]
    message = "VectorField() takes 3 fields ('label', 'xi', 'eta'), got 1"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        VectorField("none")
    with pytest.raises(TypeError, match=r"^SolutionCandidate\(\) takes 4 fields .*, got 3$"):
        SolutionCandidate(cand.label, cand.constraints, cand.fields)
    field = VectorField("none", {}, {})
    assert field.xi == {} and field.eta == {} and field.forms == {}


def test_cached_properties_keep_their_value_on_declared_records(problem):
    pair = problem.multipliers[0]
    rebuilt = type(pair)(*fields_of(pair))
    assert "forms" not in vars(rebuilt)
    assert rebuilt.forms is rebuilt.forms and rebuilt.forms == pair.forms


DRAW_ARITY = "DrawResult() takes 5 fields ('params', 'eq_residual', 'reduced_residual', 'verdict', 'cause'), got "


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, DRAW_ARITY + "0"),
        (("pass",), {}, DRAW_ARITY + "1"),
        (({}, 0.0, 0.0), {}, DRAW_ARITY + "3"),
        (({}, 0.0, 0.0, "pass"), {}, DRAW_ARITY + "4"),  # cause, too, must be given
        (({}, 0.0, 0.0, "pass", "", "extra"), {}, DRAW_ARITY + "6"),
        (({}, 0.0, 0.0, "pass"), {"cause": ""}, "Frozen.__init__() got an unexpected keyword argument 'cause'"),
    ],
)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs, message):
    """Too few fields or too many: one ``TypeError`` naming them all.  A
    field given by keyword is unknown: Python's own ``TypeError``."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        DrawResult(*args, **kwargs)


def test_one_arity_message_for_every_kind_of_record(problem):
    """``Frozen``, ``Interned``, ``Value`` and ``Program`` share the message
    of a wrong count."""
    nf = normalize(problem.ctx.parse("u"))
    for cls, args in (
        (DrawResult, ({},)),
        (VarId, (DEPENDENT,)),
        (type(nf), (nf.terms, None)),
        (Program, ((), ())),
    ):
        fields = cls._fields
        message = f"{cls.__name__}() takes {len(fields)} fields {fields}, got {len(args)}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cls(*args)


def test_every_value_hashes_as_its_field_tuple(problem):
    """The interned records hash by identity instead (see above)."""
    records = [value for value, _ in frozen_values(problem)]
    values = [value for value in records if isinstance(value, Value)]
    assert {type(v).__name__ for v in values} == {
        "Const", "Var", "Sum", "Prod", "Pow", "FuncApp", "PolyNF", "Record"
    }
    assert {type(v).__name__ for v in records if isinstance(v, Interned)} == INTERNED
    values += [v for v in (build() for build in EQUAL_BUILDS.values()) if isinstance(v, Value)]
    for value in values:
        assert hash(value) == hash(tuple(fields_of(value))), type(value).__name__
