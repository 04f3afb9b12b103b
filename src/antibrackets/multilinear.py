"""Supersymmetric multilinear operators and the Nijenhuis-Richardson bracket.

An operator of degree n takes n+1 arguments.  Values are determined by the
canonical (sorted, no repeated odd monomial) basis tuples; evaluation on any
other tuple picks up the Koszul sign of the sorting permutation.  Operators
are stored as memoized evaluation rules rather than materialized tensors:
tables are compared over the canonical tuples whose total input degree stays
within a bound (tuples beyond it are zero in the quotient for the
multiplication operators, and are outside the comparison domain for
everything else).  Values are produced on demand, per canonical tuple.
Composition (:func:`nr_product`) evaluates the outer operator on tuples
beyond that domain whenever the inner one raises degrees, as a general
linear operator does; those values are computed lazily in the same way and
never tabulated in advance.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import factorial

from .rational import rat
from .superalgebra import (
    AlgebraElement,
    EndoOp,
    Signature,
    koszul_sign,
    shuffles,
)

__all__ = [
    "MultiOp",
    "OpFamily",
    "nr_product",
    "nr_bracket",
    "mu",
    "mu_sym",
    "mu_for",
    "rho",
    "lift_endo",
    "zero_op",
    "op_add",
    "op_scale",
    "op_sum",
    "canonical_tuples",
    "ops_equal",
    "is_zero_op",
    "first_mismatch",
    "dump_operator",
]


class MultiOp:
    """Supersymmetric (degree+1)-linear operator with memoized basis values."""

    __slots__ = ("signature", "degree", "parity", "_eval", "_cache")

    def __init__(self, signature: Signature, degree: int, parity: int, eval_basis):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.signature = signature
        self.degree = degree
        self.parity = parity % 2
        self._eval = eval_basis
        self._cache = {}

    @property
    def arity(self) -> int:
        return self.degree + 1

    def value(self, monomials) -> AlgebraElement:
        """Evaluate on a tuple of basis monomials (any order)."""
        if len(monomials) != self.arity:
            raise ValueError(
                f"expected {self.arity} arguments, got {len(monomials)}"
            )
        sig = self.signature
        keys = [sig.index_of(m) for m in monomials]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        canon = tuple(monomials[i] for i in order)
        for a, b in zip(canon, canon[1:]):
            if a == b and sig.parity(a):
                return sig.element()
        parities = [sig.parity(m) for m in monomials]
        sign = koszul_sign(tuple(order), parities)
        cached = self._canonical_value(canon)
        return cached if sign == 1 else cached.scale(-1)

    def _canonical_value(self, canon) -> AlgebraElement:
        """Memoized value on a tuple already in canonical order.

        The tuple is not checked; any canonical tuple is accepted, also one
        beyond the degree bound of the comparison domain.
        """
        cached = self._cache.get(canon)
        if cached is None:
            cached = self._eval(canon)
            self._cache[canon] = cached
        return cached

    def __call__(self, *args) -> AlgebraElement:
        """Evaluate on monomials and/or elements (multilinear expansion)."""
        if len(args) != self.arity:
            raise ValueError(
                f"expected {self.arity} arguments, got {len(args)}"
            )
        slots = [
            list(a.terms.items()) if isinstance(a, AlgebraElement) else [(a, 1)]
            for a in args
        ]
        sig = self.signature
        acc = {}
        for combo in itertools.product(*slots):
            coeff = 1
            for _, c in combo:
                coeff = coeff * c
            if not coeff:
                continue
            val = self.value(tuple(m for m, _ in combo))
            for m, c in val.terms.items():
                acc[m] = acc.get(m, 0) + coeff * c
        return AlgebraElement(sig, acc)


class OpFamily:
    """Finitely many operator components indexed by degree."""

    __slots__ = ("signature", "components")

    def __init__(self, signature: Signature, components=None):
        self.signature = signature
        self.components = dict(components or {})

    def component(self, n: int) -> MultiOp:
        op = self.components.get(n)
        return op if op is not None else zero_op(self.signature, n)

    def add(self, other: "OpFamily") -> "OpFamily":
        out = dict(self.components)
        for n, op in other.components.items():
            out[n] = op_add(out[n], op) if n in out else op
        return OpFamily(self.signature, out)

    def scale(self, c) -> "OpFamily":
        return OpFamily(
            self.signature, {n: op_scale(op, c) for n, op in self.components.items()}
        )

    def bracket(self, other: "OpFamily", max_degree=None) -> "OpFamily":
        """Componentwise Nijenhuis-Richardson bracket of two families."""
        out = {}
        for i, f in self.components.items():
            for j, g in other.components.items():
                n = i + j
                if max_degree is not None and n > max_degree:
                    continue
                term = nr_bracket(f, g)
                out[n] = op_add(out[n], term) if n in out else term
        return OpFamily(self.signature, out)


def zero_op(signature: Signature, degree: int, parity: int = 0) -> MultiOp:
    return MultiOp(signature, degree, parity, lambda _t: signature.element())


def op_add(f: MultiOp, g: MultiOp) -> MultiOp:
    if f.signature != g.signature or f.degree != g.degree:
        raise ValueError("can only add operators of equal signature and degree")
    if f.parity != g.parity:
        raise ValueError("parity mismatch in operator sum")
    return MultiOp(
        f.signature,
        f.degree,
        f.parity,
        lambda t: f._canonical_value(t) + g._canonical_value(t),
    )


def op_scale(f: MultiOp, c) -> MultiOp:
    if c == 1:
        return f
    return MultiOp(
        f.signature, f.degree, f.parity, lambda t: f._canonical_value(t).scale(c)
    )


def op_sum(ops) -> MultiOp:
    ops = list(ops)
    if not ops:
        raise ValueError("op_sum needs at least one operator")
    first = ops[0]
    for other in ops[1:]:
        first = op_add(first, other)
    return first


def nr_product(f: MultiOp, g: MultiOp) -> MultiOp:
    """Insertion product f ⊼ g: sum over shuffles feeding g's output into f.

    On a canonical tuple, each shuffle block and its complement are canonical
    already, so g is read on the block as it stands.  Each monomial of g's
    output is inserted into the sorted complement by basis index, with the
    Koszul sign of the odd arguments it passes, and f is read on the result.
    That tuple can exceed the degree bound of the comparison domain, as a
    general operator raises degrees; its value is evaluated lazily like any
    other.
    """
    if f.signature != g.signature:
        raise ValueError("signature mismatch")
    sig = f.signature
    n, m = f.degree, g.degree
    perms = shuffles(m + 1, n)

    def eval_basis(tup):
        parities = [sig.parity(v) for v in tup]
        keys = [sig.index_of(v) for v in tup]
        acc = {}
        for perm in perms:
            inner = g._canonical_value(tuple(tup[i] for i in perm[: m + 1]))
            if inner.is_zero():
                continue
            sign = koszul_sign(perm, parities)
            rest_idx = perm[m + 1 :]
            rest = tuple(tup[i] for i in rest_idx)
            rest_keys = [keys[i] for i in rest_idx]
            for mono, c in inner.terms.items():
                key = sig.index_of(mono)
                at = bisect_left(rest_keys, key)
                if sig.parity(mono):
                    if at < n and rest_keys[at] == key:
                        continue  # a repeated odd argument
                    if sum(parities[i] for i in rest_idx[:at]) % 2:
                        c = -c
                val = f._canonical_value(rest[:at] + (mono,) + rest[at:])
                coeff = sign * c
                for out, v in val.terms.items():
                    acc[out] = acc.get(out, 0) + coeff * v
        return AlgebraElement(sig, acc)

    return MultiOp(sig, n + m, f.parity + g.parity, eval_basis)


def nr_bracket(f: MultiOp, g: MultiOp) -> MultiOp:
    """[f, g] = f ⊼ g - (-1)^(|f||g|) g ⊼ f."""
    left = nr_product(f, g)
    right = op_scale(nr_product(g, f), -((-1) ** (f.parity * g.parity)))
    return op_add(left, right)


def mu(signature: Signature, n: int) -> MultiOp:
    """Multiplication operator a_0...a_n on a commutative signature."""
    if not signature.commutative:
        raise ValueError("mu requires a commutative signature; use mu_sym")
    if n < 0:
        raise ValueError("degree must be >= 0")

    def eval_basis(tup):
        p = signature.mul_indices([signature.index_of(m) for m in tup])
        if not p:
            return signature.element()
        return signature.element_from_indices({abs(p) - 1: 1 if p > 0 else -1})

    return MultiOp(signature, n, 0, eval_basis)


def mu_sym(signature: Signature, n: int) -> MultiOp:
    """Symmetrized multiplication (1/(n+1)!) sum over all argument orders."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    inv = rat(1, factorial(n + 1))
    indices = list(itertools.permutations(range(n + 1)))

    def eval_basis(tup):
        parities = [signature.parity(v) for v in tup]
        idx = [signature.index_of(v) for v in tup]
        out = {}
        for perm in indices:
            p = signature.mul_indices([idx[i] for i in perm])
            if p:
                sign = koszul_sign(perm, parities)
                k = abs(p) - 1
                out[k] = out.get(k, 0) + (sign if p > 0 else -sign)
        return signature.element_from_indices(
            {k: inv * v for k, v in out.items() if v}
        )

    return MultiOp(signature, n, 0, eval_basis)


def mu_for(signature: Signature, n: int) -> MultiOp:
    """The multiplication operator matching the signature's variant."""
    return mu(signature, n) if signature.commutative else mu_sym(signature, n)


def rho(n: int, omega):
    """Adjoint action [mu_n, .] on an operator or a family."""
    if isinstance(omega, OpFamily):
        return OpFamily(
            omega.signature,
            {d: rho(n, op) for d, op in omega.components.items()},
        )
    return nr_bracket(mu_for(omega.signature, n), omega)


def lift_endo(f: EndoOp) -> MultiOp:
    """Embed a linear operator as the corresponding degree-0 operator."""
    if f.parity is None:
        raise ValueError("lifted operators need a declared parity")
    return MultiOp(f.signature, 0, f.parity, lambda t: f.apply(t[0]))


def canonical_tuples(signature: Signature, arity: int, max_total_degree=None):
    """Canonical basis tuples of the given arity with total degree <= bound.

    The bound defaults to the signature's degree bound: tuples beyond it are
    omitted from tables per the truncation convention.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    bound = (
        signature.degree_bound if max_total_degree is None else max_total_degree
    )
    basis = signature.basis()
    degrees = [signature.degree(m) for m in basis]
    odd = [signature.parity(m) for m in basis]
    out = []
    stack = [0] * arity

    def extend(start, remaining, depth):
        if depth == arity:
            out.append(tuple(basis[i] for i in stack))
            return
        for i in range(start, len(basis)):
            d = degrees[i]
            if d > remaining:
                break  # basis is sorted by degree
            if depth and stack[depth - 1] == i and odd[i]:
                continue
            stack[depth] = i
            extend(i, remaining - d, depth + 1)

    extend(0, bound, 0)
    return out


def first_mismatch(f: MultiOp, g: MultiOp, max_total_degree=None):
    """First canonical tuple where the two operators differ, or None."""
    if f.signature != g.signature or f.degree != g.degree:
        raise ValueError("operators are not comparable")
    for tup in canonical_tuples(f.signature, f.arity, max_total_degree):
        a = f.value(tup)
        b = g.value(tup)
        if a != b:
            return (tup, a, b)
    return None


def ops_equal(f: MultiOp, g: MultiOp, max_total_degree=None) -> bool:
    """Exact table equality over the canonical comparison domain."""
    return first_mismatch(f, g, max_total_degree) is None


def is_zero_op(f: MultiOp, max_total_degree=None) -> bool:
    return all(
        f.value(t).is_zero()
        for t in canonical_tuples(f.signature, f.arity, max_total_degree)
    )


def dump_operator(f: MultiOp, max_total_degree=None) -> str:
    """One line per canonical tuple: "(m1,...,mk) -> element"."""
    sig = f.signature
    lines = []
    for tup in canonical_tuples(sig, f.arity, max_total_degree):
        names = ",".join(sig.monomial_str(m) for m in tup)
        lines.append(f"({names}) -> {f.value(tup)!r}")
    return "\n".join(lines)
