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
Every insertion product is one :func:`_insertions` node for a weighted sum
of terms f ⊼ g, which holds the insertion loop: :func:`nr_product` is its
one-term case, :func:`nr_bracket` its two-term case, and
:func:`rho_combination`, a weighted sum of [mu_n, omega] terms (rho_n omega
is ``[(n, omega, 1)]``), gives it two terms per term.  It evaluates the
outer operator on tuples beyond that domain whenever the inner one raises
degrees, as a general linear operator does; those values are computed
lazily in the same way and never tabulated in advance.  Every shuffle sum
of the package reads two bounded tables: the block shapes of a pattern of
repeated arguments (:func:`_shuffle_shapes`), one block per sub-multiset
with the number of blocks that pick it as its weight, and the Koszul signs
of the blocks of a parity pattern (:func:`_shuffle_signs`).  Any other
linear combination is one node, built by :func:`op_combination` over one
denominator; its terms are not flattened, as their memos are shared.

Per-tuple work that does not depend on the operator is done once per
:class:`~antibrackets.superalgebra.Signature` and kept on it, in three stores:
``sig._tuples`` holds the canonical index tuples of each (arity, bound),
which :func:`first_mismatch` and :func:`is_zero_op` walk; ``sig._plans``
maps a canonical index tuple to its :func:`_plan` (product table, signs
and shapes), which the direct route and every :func:`_insertions` node
read (an associative plan has no product table), and holds only tuples of
total degree within the degree bound; ``sig._canonical`` maps a tuple of
monomial arguments of :meth:`MultiOp.__call__` to its sign and canonical
index tuple, up to :data:`ARGUMENT_MEMO_SIZE` entries.  ``sig._mu`` holds
the one :func:`mu` node of each n, so every caller reads one memo, or, on a
commutative signature and for n >= 1, the product table in its place.

A linear operator is an operator of degree 0, reading its image of each
basis index from a stored row.  :func:`linear_op` validates the images a
caller supplies, ``{basis index: {index: coeff}}``, and the operator
constructors :func:`derivation_endo`, :func:`odd_partial_endo` and
:func:`multiplication_endo` build theirs with it; :func:`random_endo`
draws every row at the first read.  The identity is ``mu(sig, 0)``.
Linear operators compose by :func:`nr_product` and their graded
commutator is :func:`nr_bracket`.  The shuffle sums of :mod:`.brackets`
read a linear operator's images from its memo, each through one product
row, whose length is the one degree cut.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from functools import lru_cache
from math import comb, factorial, lcm
from numbers import Real
from operator import itemgetter

from .rational import rat
from .superalgebra import AlgebraElement, Signature, koszul_sign

__all__ = [
    "MultiOp",
    "nr_product",
    "nr_bracket",
    "mu",
    "rho_combination",
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
    ``eval_basis`` maps a canonical index tuple to {index: nonzero coeff}.
    The shuffle formula reads a linear operator's images from this memo,
    only for its formal terms whose coefficient survives."""

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
        # one memo read when every argument is one basis index
        hit = sig._canonical.get(args) or _canonical_arguments(sig, args)
        if hit is not None:
            sign, canon = hit
            if not sign:
                return AlgebraElement._of(sig, {})
            value = self._canonical_value(canon)
            return AlgebraElement._of(
                sig, dict(value) if sign > 0 else {k: -c for k, c in value.items()})
        if any(isinstance(a, AlgebraElement) and a.signature != sig for a in args):
            raise ValueError("signature mismatch")
        slots = [
            a.terms.items() if isinstance(a, AlgebraElement)
            else [(sig.index_of(a), 1)]
            for a in args
        ]
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


# Entries kept by each signature's memo of monomial argument tuples: the
# tuples a caller passes in any order are not bounded by the signature.
ARGUMENT_MEMO_SIZE = 1 << 14


def _canonical_arguments(sig: Signature, args):
    """(sign, canonical index tuple) of operator arguments that are all
    basis monomials, (0, None) when an odd index repeats, and None when
    some argument is an element.  The tuple of monomials enters the
    signature's memo ``sig._canonical``, up to :data:`ARGUMENT_MEMO_SIZE`
    entries."""
    sig.basis()
    index = sig._index
    indices = []
    for a in args:
        if isinstance(a, AlgebraElement):
            return None
        i = index.get(a)
        indices.append(sig.index_of(a) if i is None else i)
    hit = sig.canonical_indices(indices)
    if len(sig._canonical) < ARGUMENT_MEMO_SIZE:
        sig._canonical[args] = hit
    return hit


def _nonzero(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if v}


def _refuse_unequal(shapes):
    """ValueError unless there is a first (signature, degree, parity) and
    every other equals it: the terms of a sum."""
    if not shapes:
        raise ValueError("a combination needs at least one term")
    for shape in shapes[1:]:
        if shape[:2] != shapes[0][:2]:
            raise ValueError("can only add operators of equal signature and degree")
        if shape[2] != shapes[0][2]:
            raise ValueError("parity mismatch in operator sum")


def op_combination(terms) -> MultiOp:
    """One node for sum_i c_i f_i over pairs (f_i, c_i); f itself for [(f, 1)].

    This is the one way to build a linear combination of operators.  All
    terms share signature, degree and parity.  Terms that are combinations
    are not flattened into theirs, as their memos are shared, e.g. across
    degrees in :func:`~antibrackets.brackets.exp_rho_family`.  A value sums
    the integer numerators L c_i over the lcm L of the weights' denominators
    and divides each output entry once by L, to an int when L divides it;
    int weights keep ints int.
    """
    terms = list(terms)
    _refuse_unequal([(g.signature, g.degree, g.parity) for g, _ in terms])
    f = terms[0][0]
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
        return {k: v // den if not v % den else rat(v, den)
                for k, v in acc.items() if v}

    return MultiOp(f.signature, f.degree, f.parity, eval_basis)


def _picker(positions):
    """Getter of the tuple of a tuple's entries at ``positions``, in one call."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


# Entries kept by each cache of shape data (shuffle shapes, sign tables):
# arguments of arity a have 2^a parity patterns, so an unbounded cache
# would grow with every large arity a caller asks for.
SHAPE_CACHE_SIZE = 1024


def _runs(tup) -> tuple:
    """Lengths of the runs of equal entries of a sorted tuple, the key of
    its :func:`_shuffle_shapes` table."""
    runs = [1]
    for a, b in zip(tup, tup[1:]):
        if a == b:
            runs[-1] += 1
        else:
            runs.append(1)
    return tuple(runs)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shuffle_shapes(runs: tuple) -> tuple:
    """(rows, by_size) for the positions of a sorted tuple whose equal
    entries come in runs of the given lengths; ``(1,) * n`` is every bit
    mask of n positions, for arguments in any order.

    Blocks that take the same number of copies of each run pick the same
    sub-multiset, so one block stands for each class: the first c_r copies
    of run r, of weight prod C(m_r, c_r).  As a canonical tuple repeats
    only even entries, every block of a class has the same entries, the
    same complement, the same Koszul sign and the same odd-passing parities.
    rows, by increasing mask B, are (B, weight, getter of a tuple's entries
    at B, getter of those at the complement, prefixes, subs): prefixes[a]
    is the mask of the complement's first a positions, and subs lists
    (S, B ^ S, rank of S in B, (-1)^(|B|-|S|) times S's weight) for the
    classes of nonempty sub-blocks S of B, found the same way within B
    (bit b of the rank picks B's b-th position).  by_size[k] lists the rows
    of the k-blocks."""
    n = sum(runs)
    starts = list(itertools.accumulate(runs[:-1], initial=0))

    # (mask, weight, rank, copies of each run) per sub-multiset of the block
    # of counts[r] copies of run r, in product order; bit b of the rank
    # picks the block's b-th position
    def classes(counts):
        out, offset = [(0, 1, 0, ())], 0
        for m, at in zip(counts, starts):
            out = [(mask | ((1 << c) - 1) << at, weight * comb(m, c),
                    rank | ((1 << c) - 1) << offset, picks + (c,))
                   for mask, weight, rank, picks in out for c in range(m + 1)]
            offset += m
        return out

    rows = []
    for block, weight, _, counts in sorted(classes(runs)):
        positions = [q for q in range(n) if block >> q & 1]
        rest = [q for q in range(n) if not block >> q & 1]
        prefixes = list(itertools.accumulate((1 << q for q in rest), initial=0))
        size = len(positions)
        subs = [(sub, block ^ sub, rank,
                 -w if (size - sub.bit_count()) & 1 else w)
                for sub, w, rank, _ in classes(counts) if sub]
        rows.append((block, weight, _picker(positions), _picker(rest), prefixes,
                     subs))
    by_size = [[row for row in rows if row[0].bit_count() == k]
               for k in range(n + 1)]
    return rows, by_size


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shuffle_signs(pattern: tuple) -> tuple:
    """(signs, odd) for arguments of parities ``pattern``: signs[B] is the
    Koszul sign of moving the arguments at the positions in the bit mask B
    in front of the others, each odd one passing the odd ones before it,
    and odd is the mask of the odd positions, so an odd argument put after
    the first a of B's complement passes ``(odd & prefixes[a]).bit_count()``
    odd ones (:func:`_shuffle_shapes`).  Built by the highest position q in
    O(2^n): B plus q keeps B's sign, flipped when q is odd and an odd
    number of the odd positions below q are outside B."""
    odd = sum(p << q for q, p in enumerate(pattern))
    signs = [1]
    for q, p in enumerate(pattern):
        if not p:
            signs += signs
            continue
        below = odd & ((1 << q) - 1)
        signs += [-s if (below & ~block).bit_count() & 1 else s
                  for block, s in enumerate(signs)]
    return signs, odd


def _plan(sig: Signature, tup: tuple) -> tuple:
    """(products, signs, odd, rows, by_size) of a canonical index tuple: its
    :meth:`~.Signature.subset_products` table, its :func:`_shuffle_signs`
    and the :func:`_shuffle_shapes` table of its runs.  On an associative
    signature products is None, as no route reads it there: :func:`mu` is
    read from its memo, and :func:`_insertions` reads only signs and shapes.

    None of it depends on an operator, so every node on the signature reads
    one plan per tuple.  Plans are kept in ``sig._plans`` for the tuples of
    total degree within the degree bound, which bounds them by the
    comparison domain; a tuple beyond it (an operator composed with one that
    raises degrees reads such tuples) gets a fresh plan each time."""
    plan = sig._plans.get(tup)
    if plan is None:
        parities = sig.basis_parities()
        plan = (sig.subset_products(tup) if sig.commutative else None,
                *_shuffle_signs(tuple(map(parities.__getitem__, tup))),
                *_shuffle_shapes(_runs(tup)))
        if sum(map(sig.basis_degrees().__getitem__, tup)) <= sig.degree_bound:
            sig._plans[tup] = plan
    return plan


def _insertions(terms) -> MultiOp:
    """One node for sum_i w_i (f_i ⊼ g_i) over (f_i, g_i, w_i), with int
    weights w_i: every insertion product of the package, in one loop.

    All terms share signature, degree and parity.  On a canonical tuple,
    each shuffle block and its complement are canonical already, so g is
    read on the block as it stands.  Each basis index of g's value is
    inserted into the sorted complement by bisection, with the Koszul sign
    of the odd arguments it passes, and f is read on the result.  That tuple
    can exceed the degree bound of the comparison domain, as a general
    operator raises degrees; its value is evaluated lazily like any other.
    Blocks and signs come from the tuple's :func:`_plan`, read once for all
    terms: its :func:`_shuffle_shapes` rows, one per sub-multiset, weighted
    by the number of blocks that pick it, and its :func:`_shuffle_signs`.

    On a commutative signature the :func:`mu` node of each n >= 1 is read
    off the plan's :meth:`~.Signature.subset_products` table: as g, its
    value on a block is the block's entry; as f, g's value on a block is
    multiplied by the complement's entry.  Every other operator, mu_0 and
    mu on an associative signature among them, is read from its memo.
    """
    terms = list(terms)
    if any(f.signature != g.signature for f, g, _ in terms):
        raise ValueError("signature mismatch")
    f, g, _ = terms[0]
    sig = f.signature
    parities = sig.basis_parities()
    full = (1 << (f.degree + g.arity)) - 1

    def tabled(op):
        return sig.commutative and op.degree > 0 and sig._mu.get(op.degree) is op

    terms = [(f._canonical_value, f.degree, tabled(f),
              g._canonical_value, g.arity, tabled(g), w) for f, g, w in terms]

    def eval_basis(tup):
        products, signs, odd, _, by_size = _plan(sig, tup)
        acc = {}
        for read_f, n, outer_mu, read_g, arity, inner_mu, w in terms:
            for mask, weight, block, rest_of, prefixes, _ in by_size[arity]:
                if outer_mu:
                    s, j = products[full ^ mask]
                    if not s:
                        continue
                if inner_mu:
                    c, k = products[mask]
                    if not c:
                        continue
                    inner = ((k, c),)
                elif not (inner := read_g(block(tup)).items()):
                    continue
                coeff = signs[mask] * weight * w
                if outer_mu:
                    sig.mul_into(acc, inner, j, s * coeff)
                    continue
                rest = rest_of(tup)
                for k, c in inner:
                    at = bisect_left(rest, k)
                    if parities[k]:
                        if at < n and rest[at] == k:
                            continue  # a repeated odd argument
                        if (odd & prefixes[at]).bit_count() & 1:
                            c = -c
                    c *= coeff
                    for out, v in read_f(rest[:at] + (k,) + rest[at:]).items():
                        acc[out] = acc.get(out, 0) + c * v
        return _nonzero(acc)

    return MultiOp(sig, f.degree + g.degree, f.parity + g.parity, eval_basis)


def nr_product(f: MultiOp, g: MultiOp) -> MultiOp:
    """Insertion product f ⊼ g: the filtered sum over shuffles feeding g's
    output into f, the one-term :func:`_insertions` node."""
    return _insertions([(f, g, 1)])


def nr_bracket(f: MultiOp, g: MultiOp) -> MultiOp:
    """[f, g] = f ⊼ g - (-1)^(|f||g|) g ⊼ f, one :func:`_insertions` node
    of two terms."""
    return _insertions([(f, g, 1), (g, f, -((-1) ** (f.parity * g.parity)))])


def mu(signature: Signature, n: int) -> MultiOp:
    """The multiplication operator mu_n: the product a_0...a_n, symmetrized
    over argument orders; mu_0 is the identity.

    On a commutative signature every order gives the same product, so a
    value is one :meth:`~.Signature.mul_indices`.  On an associative one it
    is the Koszul-signed sum over the (n+1)! orders, which
    :func:`op_combination` divides once by (n+1)!, to an int wherever the
    division is exact.

    There is one node per (signature, n), kept in ``signature._mu``, so
    every caller reads one memo.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    node = signature._mu.get(n)
    if node is None:
        node = signature._mu[n] = _mu_node(signature, n)
    return node


def _mu_node(signature: Signature, n: int) -> MultiOp:
    """A new node of mu_n, outside ``signature._mu``."""
    if signature.commutative:
        def eval_basis(tup):
            sign, k = signature.mul_indices(tup)
            return {k: sign} if sign else {}

        return MultiOp(signature, n, 0, eval_basis)
    orders = list(itertools.permutations(range(n + 1)))

    def eval_sum(tup):  # (n+1)! mu_n
        parities = signature.basis_parities()
        tup_parities = [parities[i] for i in tup]
        acc = {}
        for order in orders:
            sign, k = signature.mul_indices([tup[i] for i in order])
            if sign:
                acc[k] = acc.get(k, 0) + sign * koszul_sign(order, tup_parities)
        return _nonzero(acc)

    return op_combination([(MultiOp(signature, n, 0, eval_sum),
                            rat(1, factorial(n + 1)))])


def rho_combination(terms) -> MultiOp:
    """One node for sum_i w_i [mu_(n_i), omega_i] over (n_i, omega_i, w_i),
    with int weights w_i.

    All terms share signature, parity and degree n_i + omega_i.degree.  It
    is the :func:`_insertions` node of the terms (omega, mu_n, -w) and
    (mu_n, omega, w), so on a commutative signature both halves of every
    term with n >= 1 read one product table per tuple.
    """
    terms = list(terms)
    _refuse_unequal([(g.signature, m + g.degree, g.parity) for m, g, _ in terms])
    sig = terms[0][1].signature
    return _insertions(term for m, omega, w in terms
                       for term in ((omega, mu(sig, m), -w), (mu(sig, m), omega, w)))


def linear_op(signature: Signature, images, parity: int) -> MultiOp:
    """The linear operator of the given parity, as the degree-0 operator
    whose value on (i,) is the stored image of basis[i].

    ``images`` is ``{basis index: {index: coeff}}``; a missing basis index
    maps to zero.  A key that is not an int in ``range(len(basis))``, or an
    image of the wrong parity, raises ValueError.
    """
    parities = signature.basis_parities()
    size = len(parities)
    indices = set(range(size))
    by_parity = [{k for k in indices if parities[k] == p} for p in (0, 1)]
    stored = [{}] * size
    for i, image in images.items():
        # a bool or float key equals an int one, so the types are checked too
        if not ({type(i), *map(type, image)} <= {int}
                and i in indices and image.keys() <= indices):
            for key in (i, *image):
                if type(key) is not int or not 0 <= key < size:
                    raise ValueError(
                        f"{key!r} is not a basis index in range({size})")
        image = stored[i] = {k: c for k, c in image.items() if c}
        if not image.keys() <= by_parity[(parities[i] + parity) % 2]:
            raise ValueError(f"image of basis index {i} violates parity {parity}")
    return MultiOp(signature, 0, parity, lambda t: stored[t[0]])


def random_endo(signature: Signature, seed: int, parity="even", density=0.25) -> MultiOp:
    """Seeded sparse operator with integer matrix entries in [-9, 9].

    The requested parity is enforced structurally: a basis monomial of
    parity s only maps into the span of monomials of parity s (even) or
    1 - s (odd).  Each allowed matrix entry is nonzero with the given
    density; the result is deterministic in the seed.  A seed that is not
    an int, or a density that is not a real number in [0, 1], raises
    ValueError here, when the operator is built.

    Nothing is drawn when the operator is built: the first read of any
    image draws every row, from one ``random.Random(seed)`` that is then
    dropped, and later reads look the rows up.  The draw order is a
    contract that every seeded pin depends on: for each basis index i,
    then each allowed target k, both in basis order, one ``random()``, and
    where it falls below the density the 5-bit draws of
    ``randint(-9, 9)``.  A zero draw stores no entry; the others go into
    row i in the order k was drawn.
    """
    par = {"even": 0, "odd": 1, 0: 0, 1: 1}.get(parity)
    if par is None:
        raise ValueError(f"parity must be 'even', 'odd', 0 or 1, got {parity!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if not (isinstance(density, Real) and 0 <= density <= 1):
        raise ValueError(
            f"density must be a real number in [0, 1], got {density!r}")
    stored = []

    def eval_basis(t):
        if not stored:  # the first read draws every row
            rng = random.Random(seed)
            draw, bits = rng.random, rng.getrandbits
            parities = signature.basis_parities()
            by_parity = {p: [k for k, q in enumerate(parities) if q == p]
                         for p in (0, 1)}
            for p in parities:
                image = {}
                for k in by_parity[(p + par) % 2]:
                    if draw() < density:
                        # randint(-9, 9): 5 bits, redrawn until below 19
                        r = bits(5)
                        while r >= 19:
                            r = bits(5)
                        if r != 9:
                            image[k] = r - 9
                stored.append(image)
        return stored[t[0]]

    return MultiOp(signature, 0, par, eval_basis)


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


def _index_tuples(signature: Signature, arity: int, max_total_degree=None):
    """Canonical tuples of basis indices of the given arity and total degree
    <= bound (by default the signature's degree bound, past which tables are
    truncated), in lexicographic order: one list per (arity, bound), kept in
    ``signature._tuples``; not to be mutated."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    bound = (
        signature.degree_bound if max_total_degree is None else max_total_degree
    )
    out = signature._tuples.get((arity, bound))
    if out is not None:
        return out
    basis = signature.basis()
    degrees = signature.basis_degrees()
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
    signature._tuples[arity, bound] = out
    return out


def canonical_tuples(signature: Signature, arity: int, max_total_degree=None):
    """Canonical basis tuples of the given arity with total degree <= bound.

    The monomial form of :func:`_index_tuples`, in the same order, in a
    fresh list.
    """
    basis = signature.basis()
    return [
        tuple(basis[i] for i in tup)
        for tup in _index_tuples(signature, arity, max_total_degree)
    ]


def first_mismatch(f: MultiOp, g: MultiOp, max_total_degree=None):
    """First canonical tuple where the two operators differ, or None.

    A mismatch is reported as (monomial tuple, f's value, g's value).
    """
    if f.signature != g.signature or f.degree != g.degree:
        raise ValueError("operators are not comparable")
    sig = f.signature
    for tup in _index_tuples(sig, f.arity, max_total_degree):
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
        for t in _index_tuples(f.signature, f.arity, max_total_degree)
    )
