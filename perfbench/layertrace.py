"""Outside-in span tracer for the nlseverify layers.

The tracer wraps public functions of the layer modules in timing wrappers
from outside the package; nothing under ``src/`` knows about it.  Each
outermost call of a wrapped function records a span (name, start, end,
parent span).  Spans stay in memory until the run ends; self time is a
span's duration minus the time covered by its child spans.

Three details decide whether the numbers are complete:

* ``from .x import f`` leaves a copy of ``f`` in every importing module, so
  every module of the package that holds the original is rebound, not only
  the defining one (``normalize`` lives in ``jets``, ``cli`` and
  ``reduction`` as well as ``normal``).
* Recursive functions (``normalize``, ``eval_numeric``, ``render``) and
  ``total_derivative`` reached through ``iterated_derivative`` record a span
  at the outermost call only; nested calls run unwrapped work inside it.
* ``nlseverify.parse`` as a package attribute is the function, so modules
  are looked up in ``sys.modules``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); a dotted attribute is a method on a class.
TARGETS = (
    ("nlseverify.problem", "load_problem", "problem.load_problem"),
    ("nlseverify.parse", "parse", "parse.parse"),
    ("nlseverify.normal", "normalize", "normal.normalize"),
    ("nlseverify.jets", "total_derivative", "jets.total_derivative"),
    ("nlseverify.jets", "iterated_derivative", "jets.total_derivative"),
    ("nlseverify.jets", "euler_operator", "jets.euler_operator"),
    ("nlseverify.jets", "apply_field", "jets.apply_field"),
    ("nlseverify.jets", "PDESystem.reduce", "jets.system_reduce"),
    ("nlseverify.jets", "prolong", "jets.prolong"),
    ("nlseverify.exprs", "eval_numeric", "exprs.eval_numeric"),
    ("nlseverify.exprs", "substitute", "exprs.substitute"),
    ("nlseverify.exprs", "render", "exprs.render"),
    ("nlseverify.reduction", "classify", "reduction.classify"),
    ("nlseverify.reduction", "build_canonical_transform", "reduction.build_canonical_transform"),
    ("nlseverify.reduction", "reduced_ode", "reduction.reduced_ode"),
    ("nlseverify.numerics", "step_rk4", "numerics.step_rk4"),
    ("nlseverify.numerics", "rhs", "numerics.rhs"),
    ("nlseverify.numerics", "deriv1", "numerics.deriv"),
    ("nlseverify.numerics", "deriv2", "numerics.deriv"),
    ("nlseverify.numerics", "conserved_quantity", "numerics.conserved_quantity"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def tree_size(e) -> int:
    """Number of nodes in an expression tree, shared subtrees counted per use."""
    exprs = sys.modules["nlseverify.exprs"]
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        kind = type(node)
        if kind is exprs.Sum:
            stack.extend(node.terms)
        elif kind is exprs.Prod:
            stack.extend(node.factors)
        elif kind is exprs.Pow:
            stack.append(node.base)
        elif kind is exprs.FuncApp:
            stack.append(node.arg)
    return n


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.span_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.counters = {"normal.nodes_in": 0, "normal.terms_out": 0, "normal.zero_out": 0,
                         "numerics.step_points": 0}
        self.prolong_keys: set[tuple] = set()  # distinct (field, order) pairs
        self.rebound: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open = [False] * len(SPAN_NAMES)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- per-target hooks, run outside the timed interval -----------------

    def _before(self, name: str, args: tuple) -> None:
        if name == "normal.normalize":
            self.counters["normal.nodes_in"] += tree_size(args[0])
        elif name == "jets.prolong":
            fieldv, order = args[0], args[1]
            self.prolong_keys.add(
                (fieldv.label, tuple(sorted(fieldv.xi.items())), tuple(sorted(fieldv.eta.items())), order)
            )
        elif name == "numerics.step_rk4":
            self.counters["numerics.step_points"] += args[0].grid.n

    def _after(self, name: str, result) -> None:
        if name == "normal.normalize":
            self.counters["normal.terms_out"] += len(result.terms)
            self.counters["normal.zero_out"] += result.is_zero

    def _wrap(self, fn, name: str):
        sid = self.span_id[name]
        hooked = name in ("normal.normalize", "jets.prolong", "numerics.step_rk4")
        is_open, stack, calls = self._open, self._stack, self.calls
        names, parents, starts, ends = self._name, self._parent, self._start, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_open[sid]:  # nested in a span of the same name
                return fn(*args, **kwargs)
            if hooked:
                self._before(name, args)
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            is_open[sid] = True
            calls[sid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                starts[idx] = t0
                ends[idx] = t1
                stack.pop()
                is_open[sid] = False
            if hooked:
                self._after(name, result)
            return result

        return wrapper

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "nlseverify" or n.startswith("nlseverify.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
                self.rebound[name] = self.rebound.get(name, 0) + 1
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
                        self.rebound[name] = self.rebound.get(name, 0) + 1

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Every counter, as totals since the tracer was made."""
        out = {f"{name}_calls": self.calls[sid] for name, sid in self.span_id.items()}
        out.update(self.counters)
        out["jets.prolong_distinct"] = len(self.prolong_keys)
        return out

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, inclusive time) in seconds per span name."""
        n = len(self._name)
        child = [0.0] * n
        dur = [self._end[i] - self._start[i] for i in range(n)]
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(n):
            name = SPAN_NAMES[self._name[i]]
            own[name] += dur[i] - child[i]
            total[name] += dur[i]
        return own, total

    def span_count(self) -> int:
        return len(self._name)
