"""Outside-in tracer for the benchmark's traced runs.

The tracer never edits the library. It replaces names on the library's
module namespaces and classes with wrappers, and restores the originals on
exit. Each wrapped name aggregates a call count, a total time and a self
time, the self time being the call's duration minus the time spent in
wrapped callees. The million-call names (``MultiOp.value``, the monomial
product, the ``Fraction`` dunders) are aggregated this way rather than
kept as one span per call. Coarse spans (workload, check, construction) are
opened by the benchmark itself and kept as a list.
"""

from __future__ import annotations

import contextlib
import time

# Fraction construction and arithmetic; comparisons and hashing are left out.
FRACTION_OPS = (
    "__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
    "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)

ELEMENT_OPS = (
    "__add__", "__sub__", "__neg__", "scale", "__mul__", "__rmul__",
    "mul_monomial",
)


class Tracer:
    """Aggregated per-name call statistics plus a list of coarse spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # [name, start_s, end_s, parent index or None]
        self._stack = []  # one [child_s] cell per active wrapped call
        self._open_spans = []
        self._patches = []  # (owner, attribute, original raw value)
        self._origin = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, func, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = [0]  # recursion depth, so total time counts the outer call once
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            stats[0] += 1
            cell = [0.0]
            stack.append(cell)
            active[0] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[0] -= 1
                stats[2] += elapsed - cell[0]
                if not active[0]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        traced.__wrapped__ = func
        return traced

    def patch_function(self, namespaces, func, name, observe=None):
        """Replace ``func`` on every namespace that binds it."""
        wrapper = self._wrap(name, func, observe)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is func:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def patch_method(self, cls, attr, name, observe=None):
        """Replace a method (or ``__new__``) defined on ``cls`` itself."""
        raw = cls.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        wrapper = self._wrap(name, func, observe)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def restore(self):
        """Put back every original value, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- spans and results -------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open_spans[-1] if self._open_spans else None
        record = [name, time.perf_counter() - self._origin, None, parent]
        self.spans.append(record)
        self._open_spans.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open_spans.pop()
            record[2] = time.perf_counter() - self._origin

    def span_seconds(self, name):
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]


def _public_callables(module):
    for attr in getattr(module, "__all__", ()):
        value = getattr(module, attr, None)
        if callable(value) and not isinstance(value, type):
            yield attr, value


class LibraryProbe:
    """Installs a :class:`Tracer` on the library's layers.

    Every public function of every layer is wrapped under the name
    ``<layer>.<function>``, on every module namespace that binds it (the
    package itself and the layers that import it by name). The class
    methods below are wrapped on their class. Observers record the
    arguments needed for reuse ratios and for the comparison domain.
    """

    def __init__(self, package, layers):
        self.tracer = Tracer()
        self._package = package
        self._layers = layers  # layer name -> module
        self._mul_keys = set()
        self._value_keys = {}  # id(op) -> (op, set of argument keys)
        self.value_repeats = 0
        self.compared = []  # (signature, arity, max_total_degree) per first_mismatch

    def __enter__(self):
        t = self.tracer
        namespaces = [self._package, *self._layers.values()]
        observers = {"multilinear.first_mismatch": self._observe_first_mismatch}
        try:
            for layer, module in self._layers.items():
                for attr, func in _public_callables(module):
                    name = f"{layer}.{attr}"
                    t.patch_function(namespaces, func, name, observers.get(name))
            ml, sa = self._layers["multilinear"], self._layers["superalgebra"]
            t.patch_method(ml.MultiOp, "value", "multilinear.value",
                           self._observe_value)
            t.patch_method(ml.MultiOp, "__call__", "multilinear.call")
            t.patch_method(sa.Signature, "mul_monomials",
                           "superalgebra.mul_monomials", self._observe_mul)
            for attr in ELEMENT_OPS:
                t.patch_method(sa.AlgebraElement, attr,
                               f"superalgebra.element.{attr}")
            rational = self._layers["rational"].Rational
            if rational.__module__ == "fractions":  # gmpy2.mpq cannot be patched
                for attr in FRACTION_OPS:
                    if attr in rational.__dict__:
                        t.patch_method(rational, attr, f"rational.fraction.{attr}")
        except BaseException:
            t.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.tracer.restore()
        return False

    def end_check(self):
        """Forget operator identities; operators do not outlive a check."""
        self._value_keys.clear()

    def _observe_mul(self, args, kwargs):
        sig, a, b = args
        self._mul_keys.add((id(sig), a, b))

    def _observe_value(self, args, kwargs):
        op, monomials = args
        entry = self._value_keys.get(id(op))
        if entry is None:
            entry = self._value_keys[id(op)] = (op, set())
        key = tuple(sorted(monomials))
        if key in entry[1]:
            self.value_repeats += 1
        else:
            entry[1].add(key)

    def _observe_first_mismatch(self, args, kwargs):
        f = args[0]
        bound = args[2] if len(args) > 2 else kwargs.get("max_total_degree")
        self.compared.append((f.signature, f.arity, bound))

    @property
    def distinct_mul_pairs(self):
        return len(self._mul_keys)
