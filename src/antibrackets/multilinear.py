"""Supersymmetric multilinear operators and the Nijenhuis-Richardson bracket.

An operator of degree n takes n+1 arguments.  Values are determined by the
canonical (sorted, no repeated odd index) tuples of basis indices; evaluation
on any other tuple picks up the Koszul sign of the sorting permutation.
Operators are memoized evaluation rules, keyed by canonical index tuple,
whose values are dicts {basis index: nonzero coefficient}, the format of
:class:`~antibrackets.superalgebra.AlgebraElement`'s ``terms``; monomials
appear only at the public boundary (the arguments of ``value`` and
``__call__``, :func:`canonical_tuples`, :func:`first_mismatch`'s
counterexample tuple).  Tables are compared over the canonical tuples whose
total input degree stays within a bound (tuples beyond it are zero in the
quotient for the multiplication operators, and are outside the comparison
domain for everything else).
Composition (:func:`nr_product`) evaluates the outer operator on tuples
beyond that domain whenever the inner one raises degrees, as a general
linear operator does; those values are computed lazily in the same way and
never tabulated in advance; its shuffles and signs are built once per shape
(:func:`_shuffle_plan`).  :func:`rho` is one node that reads both halves of
[mu_n, omega] off one product table per tuple.  A linear combination is one
node, built by :func:`op_combination` over one denominator; its terms are
not flattened, as their memos are shared.

A linear operator is an operator of degree 0.  :func:`linear_op` builds one
from its images on the basis, ``{basis index: {index: coeff}}``, and the
operator constructors (:func:`random_endo`, :func:`identity_endo`,
:func:`derivation_endo`, :func:`odd_partial_endo`,
:func:`multiplication_endo`) build theirs with it.  Linear operators compose by
:func:`nr_product` and their graded commutator is :func:`nr_bracket`.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from functools import lru_cache
from math import factorial, lcm
from operator import itemgetter

from .rational import rat
from .superalgebra import AlgebraElement, Signature, koszul_sign, shuffles

__all__ = [
    "MultiOp",
    "nr_product",
    "nr_bracket",
    "mu",
    "rho",
    "linear_op",
    "random_endo",
    "derivation_endo",
    "op_combination",
    "canonical_tuples",
    "ops_equal",
    "is_zero_op",
    "first_mismatch",
]


class MultiOp:
    """Supersymmetric (degree+1)-linear operator with memoized basis values;
    ``eval_basis`` maps a canonical index tuple to {index: nonzero coeff}."""

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
        return self(*monomials)

    def _canonical_value(self, canon) -> dict:
        """Memoized value on a canonical index tuple, as {index: coeff}.

        The tuple is not checked; any canonical tuple is accepted, also one
        beyond the degree bound of the comparison domain.  The returned dict
        is the memo entry itself and must not be modified.
        """
        cached = self._cache.get(canon)
        if cached is None:
            cached = self._cache[canon] = self._eval(canon)
        return cached

    def __call__(self, *args) -> AlgebraElement:
        """Evaluate on monomials and/or elements (multilinear expansion)."""
        if len(args) != self.arity:
            raise ValueError(
                f"expected {self.arity} arguments, got {len(args)}"
            )
        sig = self.signature
        if any(isinstance(a, AlgebraElement) and a.signature != sig for a in args):
            raise ValueError("signature mismatch")
        slots = [
            list(a.terms.items()) if isinstance(a, AlgebraElement)
            else [(sig.index_of(a), 1)]
            for a in args
        ]
        if all(len(s) == 1 and s[0][1] == 1 for s in slots):  # one memo read
            sign, canon = sig.canonical_indices([s[0][0] for s in slots])
            if not sign:
                return sig.element()
            value = AlgebraElement(sig, self._canonical_value(canon))
            return value if sign > 0 else -value
        acc = {}
        for combo in itertools.product(*slots):
            sign, canon = sig.canonical_indices([k for k, _ in combo])
            if not sign:
                continue
            coeff = sign
            for _, c in combo:
                coeff = coeff * c
            for k, v in self._canonical_value(canon).items():
                acc[k] = acc.get(k, 0) + coeff * v
        return AlgebraElement(sig, acc)


def _nonzero(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if v}


def op_combination(terms) -> MultiOp:
    """One node for sum_i c_i f_i over pairs (f_i, c_i); f itself for [(f, 1)].

    This is the one way to build a linear combination of operators.  All
    terms share signature, degree and parity.  Terms that are combinations
    are not flattened into theirs, as their memos are shared, e.g. across
    degrees in :func:`~antibrackets.brackets.exp_rho_family`.  A value sums
    the integer numerators L c_i over the lcm L of the weights' denominators
    and divides each output entry once by L; int weights keep ints int.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("a combination needs at least one term")
    f = terms[0][0]
    for g, _ in terms[1:]:
        if g.signature != f.signature or g.degree != f.degree:
            raise ValueError("can only add operators of equal signature and degree")
        if g.parity != f.parity:
            raise ValueError("parity mismatch in operator sum")
    if len(terms) == 1 and terms[0][1] == 1:
        return f
    den = lcm(*(int(c.denominator) for _, c in terms))
    terms = [(g._canonical_value, int(c * den)) for g, c in terms]

    def eval_basis(tup):
        acc = {}
        for read, c in terms:
            for k, v in read(tup).items():
                acc[k] = acc.get(k, 0) + c * v
        if den == 1:
            return _nonzero(acc)
        return {k: rat(v, den) for k, v in acc.items() if v}

    return MultiOp(f.signature, f.degree, f.parity, eval_basis)


def _picker(positions):
    """Getter of the tuple of a tuple's entries at ``positions``, in one call."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


# Entries kept by each cache of shape data (shuffle plans, sign tables): a
# split of arity a has up to 2^a parity patterns, so an unbounded cache
# would grow with every large arity a caller asks for.
SHAPE_CACHE_SIZE = 1024


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shuffle_plan(k: int, m: int, pattern: tuple) -> list:
    """Rows (block getter, complement getter, Koszul sign, passes, mask) of
    the (k, m) shuffles in :func:`shuffles` order, for arguments of parities
    ``pattern``; passes[a] is the parity of the first a complement arguments,
    and mask is the bit mask of the block's positions.  Shape data only,
    kept for the process in a bounded cache."""
    rows = []
    for perm in shuffles(k, m):
        block, rest = perm[:k], perm[k:]
        passes = tuple(sum(pattern[q] for q in rest[:a]) % 2 for a in range(m + 1))
        mask = sum(1 << q for q in block)
        rows.append((_picker(block), _picker(rest), koszul_sign(perm, pattern),
                     passes, mask))
    return rows


def nr_product(f: MultiOp, g: MultiOp) -> MultiOp:
    """Insertion product f ⊼ g: the filtered sum over shuffles feeding g's
    output into f.

    On a canonical tuple, each shuffle block and its complement are canonical
    already, so g is read on the block as it stands.  Each basis index of g's
    value is inserted into the sorted complement by bisection, with the
    Koszul sign of the odd arguments it passes, and f is read on the result;
    the shuffles and signs are :func:`_shuffle_plan`'s rows for the tuple's
    parity pattern.  That tuple can exceed the degree bound of the
    comparison domain, as a general operator raises degrees; its value is
    evaluated lazily like any other.
    """
    if f.signature != g.signature:
        raise ValueError("signature mismatch")
    parities = f.signature.basis_parities()
    n = f.degree

    def eval_basis(tup):
        acc = {}
        pattern = tuple(map(parities.__getitem__, tup))
        for block, rest_of, sign, passes, _ in _shuffle_plan(g.arity, n, pattern):
            inner = g._canonical_value(block(tup))
            if not inner:
                continue
            rest = rest_of(tup)
            for k, c in inner.items():
                at = bisect_left(rest, k)
                if parities[k]:
                    if at < n and rest[at] == k:
                        continue  # a repeated odd argument
                    if passes[at]:
                        c = -c
                coeff = sign * c
                for out, v in f._canonical_value(rest[:at] + (k,) + rest[at:]).items():
                    acc[out] = acc.get(out, 0) + coeff * v
        return _nonzero(acc)

    return MultiOp(f.signature, f.degree + g.degree, f.parity + g.parity, eval_basis)


def nr_bracket(f: MultiOp, g: MultiOp) -> MultiOp:
    """[f, g] = f ⊼ g - (-1)^(|f||g|) g ⊼ f."""
    sign = -((-1) ** (f.parity * g.parity))
    return op_combination([(nr_product(f, g), 1), (nr_product(g, f), sign)])


def mu(signature: Signature, n: int) -> MultiOp:
    """Multiplication operator a_0...a_n on a commutative signature."""
    if not signature.commutative:
        raise ValueError("mu requires a commutative signature; use mu_sym")
    if n < 0:
        raise ValueError("degree must be >= 0")

    def eval_basis(tup):
        sign, k = signature.mul_indices(tup)
        return {k: sign} if sign else {}

    return MultiOp(signature, n, 0, eval_basis)


def mu_sym(signature: Signature, n: int) -> MultiOp:
    """Symmetrized multiplication (1/(n+1)!) sum over all argument orders."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    inv = rat(1, factorial(n + 1))
    indices = list(itertools.permutations(range(n + 1)))

    def eval_basis(tup):
        parities = signature.basis_parities()
        tup_parities = [parities[i] for i in tup]
        out = {}
        for perm in indices:
            sign, k = signature.mul_indices([tup[i] for i in perm])
            if sign:
                out[k] = out.get(k, 0) + sign * koszul_sign(perm, tup_parities)
        return {k: inv * v for k, v in out.items() if v}

    return MultiOp(signature, n, 0, eval_basis)


def mu_for(signature: Signature, n: int) -> MultiOp:
    """The multiplication operator matching the signature's variant."""
    return mu(signature, n) if signature.commutative else mu_sym(signature, n)


def rho(n: int, omega: MultiOp) -> MultiOp:
    """Adjoint action [mu_n, .] on an operator.

    For n >= 1 on a commutative signature this is one node with one memo,
    and a value reads one :meth:`~.Signature.subset_products` table of its
    tuple: in omega ⊼ mu_n, mu_n on an (n+1)-block is the block's entry,
    inserted into the complement as in :func:`nr_product`; in mu_n ⊼ omega,
    omega's value on a block is multiplied by the complementary entry.  The
    blocks, masks and signs are :func:`_shuffle_plan`'s rows.  n = 0 and
    associative signatures take :func:`nr_bracket` on :func:`mu_for`.
    """
    sig = omega.signature
    if n < 1 or not sig.commutative:
        return nr_bracket(mu_for(sig, n), omega)
    parities = sig.basis_parities()
    d = omega.degree
    read = omega._canonical_value
    full = (1 << (n + d + 1)) - 1

    def eval_basis(tup):
        products = sig.subset_products(tup)
        pattern = tuple(map(parities.__getitem__, tup))
        acc = {}
        for _, rest_of, sign, passes, mask in _shuffle_plan(n + 1, d, pattern):
            s, k = products[mask]
            if not s:
                continue
            rest = rest_of(tup)
            at = bisect_left(rest, k)
            if parities[k]:
                if at < d and rest[at] == k:
                    continue  # a repeated odd argument
                if passes[at]:
                    s = -s
            coeff = -sign * s
            for out, v in read(rest[:at] + (k,) + rest[at:]).items():
                acc[out] = acc.get(out, 0) + coeff * v
        for block, _, sign, _, mask in _shuffle_plan(d + 1, n, pattern):
            s, j = products[full ^ mask]
            if s:
                sig.mul_into(acc, read(block(tup)).items(), j, s * sign)
        return _nonzero(acc)

    return MultiOp(sig, n + d, omega.parity, eval_basis)


def linear_op(signature: Signature, images, parity: int) -> MultiOp:
    """The linear operator of the given parity, as the degree-0 operator
    whose value on (i,) is the stored image of basis[i].

    ``images`` is ``{basis index: {index: coeff}}``; a missing basis index
    maps to zero.  A key that is not an int in ``range(len(basis))``, or an
    image of the wrong parity, raises ValueError.
    """
    parities = signature.basis_parities()
    size = len(parities)
    stored = [{}] * size
    for i, image in images.items():
        for key in (i, *image):
            if type(key) is not int or not 0 <= key < size:
                raise ValueError(f"{key!r} is not a basis index in range({size})")
        image = stored[i] = {k: c for k, c in image.items() if c}
        want = (parities[i] + parity) % 2
        if any(parities[k] != want for k in image):
            raise ValueError(f"image of basis index {i} violates parity {parity}")
    return MultiOp(signature, 0, parity, lambda t: stored[t[0]])


def identity_endo(signature: Signature) -> MultiOp:
    return linear_op(signature, {i: {i: 1} for i in range(len(signature.basis()))},
                     parity=0)


def random_endo(signature: Signature, seed: int, parity="even", density=0.25) -> MultiOp:
    """Seeded sparse operator with integer matrix entries in [-9, 9].

    The requested parity is enforced structurally: a basis monomial of
    parity s only maps into the span of monomials of parity s (even) or
    1 - s (odd).  Each allowed matrix entry is nonzero with the given
    density; the result is deterministic in the seed.
    """
    par = {"even": 0, "odd": 1, 0: 0, 1: 1}.get(parity)
    if par is None:
        raise ValueError(f"parity must be 'even', 'odd', 0 or 1, got {parity!r}")
    rng = random.Random(seed)
    parities = signature.basis_parities()
    by_parity = {p: [k for k, q in enumerate(parities) if q == p] for p in (0, 1)}
    images = {}
    for i, p in enumerate(parities):
        image = images[i] = {}
        for k in by_parity[(p + par) % 2]:
            if rng.random() >= density:
                continue
            image[k] = rng.randint(-9, 9)
    return linear_op(signature, images, parity=par)


def derivation_endo(signature: Signature) -> MultiOp:
    """The even derivation extending d/dx1 (commutative signatures only)."""
    if not signature.commutative or signature.even < 1:
        raise ValueError("needs a commutative signature with an even generator")
    images = {}
    for i, (exps, odds) in enumerate(signature.basis()):
        e = exps[0]
        if e:
            images[i] = {signature.index_of(((e - 1,) + exps[1:], odds)): e}
    return linear_op(signature, images, parity=0)


def odd_partial_endo(signature: Signature) -> MultiOp:
    """The odd derivation d/d(th1); square-zero by construction."""
    if not signature.commutative or signature.odd < 1:
        raise ValueError("needs a commutative signature with an odd generator")
    if not signature.unital:
        raise ValueError("d/dth1 sends th1 to the unit, and a non-unital "
                         "signature has no unit monomial")
    images = {}
    for i, (exps, odds) in enumerate(signature.basis()):
        if 0 in odds:
            # th1 sorts first, so no odd letters are crossed removing it
            images[i] = {signature.index_of((exps, odds[1:])): 1}
    return linear_op(signature, images, parity=1)


def multiplication_endo(signature: Signature, element: AlgebraElement) -> MultiOp:
    """Left multiplication by a fixed homogeneous element."""
    if element.signature != signature:
        raise ValueError("signature mismatch")
    parity = element.parity()
    if parity is None:
        raise ValueError("multiplier must be homogeneous")
    images = {i: element.mul_monomial(m).terms
              for i, m in enumerate(signature.basis())}
    return linear_op(signature, images, parity=parity)


def canonical_index_tuples(signature: Signature, arity: int, max_total_degree=None):
    """Canonical tuples of basis indices of the given arity, total degree <= bound.

    The bound defaults to the signature's degree bound: tuples beyond it are
    omitted from tables per the truncation convention.  The tuples come in
    lexicographic order.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    bound = (
        signature.degree_bound if max_total_degree is None else max_total_degree
    )
    basis = signature.basis()
    degrees = [signature.degree(m) for m in basis]
    odd = signature.basis_parities()
    out = []
    stack = [0] * arity

    def extend(start, remaining, depth):
        if depth == arity:
            out.append(tuple(stack))
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


def canonical_tuples(signature: Signature, arity: int, max_total_degree=None):
    """Canonical basis tuples of the given arity with total degree <= bound.

    The monomial form of :func:`canonical_index_tuples`, in the same order.
    """
    basis = signature.basis()
    return [
        tuple(basis[i] for i in tup)
        for tup in canonical_index_tuples(signature, arity, max_total_degree)
    ]


def first_mismatch(f: MultiOp, g: MultiOp, max_total_degree=None):
    """First canonical tuple where the two operators differ, or None.

    A mismatch is reported as (monomial tuple, f's value, g's value).
    """
    if f.signature != g.signature or f.degree != g.degree:
        raise ValueError("operators are not comparable")
    sig = f.signature
    for tup in canonical_index_tuples(sig, f.arity, max_total_degree):
        a = f._canonical_value(tup)
        b = g._canonical_value(tup)
        if a != b:
            basis = sig.basis()
            return (
                tuple(basis[i] for i in tup),
                AlgebraElement(sig, a),
                AlgebraElement(sig, b),
            )
    return None


def ops_equal(f: MultiOp, g: MultiOp, max_total_degree=None) -> bool:
    """Exact table equality over the canonical comparison domain."""
    return first_mismatch(f, g, max_total_degree) is None


def is_zero_op(f: MultiOp, max_total_degree=None) -> bool:
    return not any(
        f._canonical_value(t)
        for t in canonical_index_tuples(f.signature, f.arity, max_total_degree)
    )
