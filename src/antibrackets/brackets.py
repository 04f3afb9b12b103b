"""The hierarchy of higher antibrackets of a linear operator.

Four independent constructions of the same operators are provided:

* ``direct`` -- the signed shuffle sum over f(product of a block) times the
  complementary product;
* ``recursion`` -- the two-argument recursion expanding the last slot;
* ``bracket`` -- the bracket recursion (1/n) sum_h (-1)^h [mu_h, .], which
  also serves as the definition on associative noncommutative signatures;
* ``exponential`` -- the gauge-trivialization exp(-sum K_n rho_n) applied to
  the operator, with the Koszul numbers K_n.

On top of the constructions live the inversion formula, the right-hand side
of the generalized Jacobi identities, the L-infinity property of square-zero
odd operators, and the order-of-differential-operator vanishing criterion;
the inversion formula is checked on basis monomials.
The checks that ``verify`` runs on them are stated in :mod:`.checks`.

The operator f is a degree-0 :class:`~antibrackets.multilinear.MultiOp`,
which is Phi^1_f itself; the entry points refuse any other degree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import factorial, lcm

from .combinatorics import koszul_numbers_recursive
from .multilinear import (
    SHAPE_CACHE_SIZE,
    MultiOp,
    _nonzero,
    _plan,
    _shuffle_shapes,
    _shuffle_signs,
    is_zero_op,
    nr_bracket,
    nr_product,
    op_combination,
    rho_combination,
)

__all__ = [
    "phi_direct_op",
    "phi_hierarchy",
    "inversion_check",
]


def _require_linear(f: MultiOp):
    if f.degree != 0:
        raise ValueError(f"needs a linear operator (degree 0), got degree {f.degree}")


def _shuffle_terms(acc, sig, products, subs, signs, weight, outer):
    """Add weight * Phi^k_f(B) * basis[outer] into ``acc`` without reading
    f, where ``outer`` is the product of the positions outside the block B
    of a ``subset_products`` table (None for the whole tuple): acc[S], by
    bit mask of a sub-block S, holds the coefficient of f(product of S)
    times the product of S's complement in the whole tuple, up to the sign
    of the product of S, which :func:`_formal_terms` applies.

    Phi^k_f(B) is f on the k arguments at the positions of B: the sum over
    B's sub-block rows (S, B ^ S, rank, factor) of a
    :func:`~.multilinear._shuffle_shapes` table of factor times signs[rank]
    (``signs`` is the :func:`~.multilinear._shuffle_signs` table of B's
    parities) times f(product of S) times the product of B \\ S.  As the
    truncated algebra is associative, each sub-term is f(product of S)
    times one signed basis index, the product of B \\ S and ``outer``: the
    table's entry, read once more in the row of ``outer``.  That index is
    the product of S's complement whatever B is, so every block of a check
    adds into one entry per sub-block.  This is the one statement of the
    shuffle formula."""
    signed = sig._signed
    last = None if outer is None else sig.mul_row(outer)
    for sub, rest, rank, factor in subs:
        if not rest:
            acc[sub] += weight * factor * signs[rank]
            continue
        r, u = products[rest]
        if r and last is not None:
            r *= signed[last[u]][0] if u < len(last) else 0
        if r:
            acc[sub] += weight * factor * r * signs[rank]


def _formal_terms(terms, products, subs, acc):
    """Add the entries of ``acc`` (:func:`_shuffle_terms`) for the sub-blocks
    S in ``subs`` into ``terms``: key (j, u), with u None when S is the
    whole tuple, holds the coefficient of f(basis[j]) * basis[u], where j
    and u are the products of S and of its complement."""
    full = len(products) - 1
    for sub, _, _, _ in subs:
        c = acc[sub]
        if c:
            s, j = products[sub]
            if s:
                key = (j, products[full ^ sub][1] if sub != full else None)
                terms[key] = terms.get(key, 0) + s * c


def _read_terms(acc, f, terms):
    """Add the formal terms of :func:`_formal_terms` into ``acc``, {index:
    coeff}: f's image of basis[j], read from f's memo, times basis[u] by
    :meth:`~.superalgebra.Signature.mul_into`, whose row length is the one
    degree cut; a key whose coefficient is 0 reads no image."""
    sig = f.signature
    for (j, u), c in terms.items():
        if not c:
            continue
        image = f._canonical_value((j,)).items()
        if u is None:
            for t, v in image:
                acc[t] = acc.get(t, 0) + c * v
        else:
            sig.mul_into(acc, image, u, c)


def phi_direct_op(f: MultiOp, n: int) -> MultiOp:
    """Phi^n_f by the shuffle formula (commutative signatures) on basis
    indices: :func:`_shuffle_terms` with weight 1 and no outer factor, on
    the tuple's :func:`~.multilinear._plan` (its ``subset_products`` table
    and its :func:`~.multilinear._shuffle_shapes` rows, one per
    sub-multiset, weighted by the number of sub-blocks that pick it), keyed
    by :func:`_formal_terms`, then :func:`_read_terms`, which reads f's
    images from its memo only for the keys whose coefficient survives."""
    _require_linear(f)
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the shuffle formula needs a commutative signature")
    if n < 1:
        raise ValueError("n must be >= 1")

    def eval_basis(tup):
        products, signs, _, rows, _ = _plan(sig, tup)
        subs = rows[-1][5]
        coeffs, terms, acc = [0] * len(products), {}, {}
        _shuffle_terms(coeffs, sig, products, subs, signs, 1, None)
        _formal_terms(terms, products, subs, coeffs)
        _read_terms(acc, f, terms)
        return _nonzero(acc)

    return MultiOp(sig, n - 1, f.parity, eval_basis)


def _recursion_ops(f: MultiOp, N: int) -> dict:
    """Phi^r(.., b, c) = Phi^(r-1)(.., bc) - Phi^(r-1)(.., b) c
    - (-1)^(|b||c|) Phi^(r-1)(.., c) b, on basis indices."""
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the recursive formula needs a commutative signature")
    parities = sig.basis_parities()
    ops = {1: f}
    for r in range(2, N + 1):
        prev = ops[r - 1]

        def eval_basis(tup, prev=prev):
            front, b, c = tup[:-2], tup[-2], tup[-1]
            acc = {}
            p, bc = sig.mul_indices((b, c))
            if p:
                s, canon = sig.canonical_indices(front + (bc,))
                if s:
                    for k, v in prev._canonical_value(canon).items():
                        acc[k] = p * s * v
            swap = (-1) ** (parities[b] * parities[c])
            # front + (b,) and front + (c,) are canonical, as tup is
            sig.mul_into(acc, prev._canonical_value(front + (b,)).items(), c, -1)
            sig.mul_into(acc, prev._canonical_value(front + (c,)).items(), b, -swap)
            return _nonzero(acc)

        ops[r] = MultiOp(sig, r - 1, f.parity, eval_basis)
    return ops


def _bracket_ops(f: MultiOp, N: int) -> dict:
    """Phi^1..Phi^N by the bracket recursion
    Phi^(n+1) = (1/n) sum_h (-1)^h [mu_h, Phi^(n-h+1)]: each level is one
    :func:`~.multilinear.rho_combination` node with weights (-1)^h and
    divisor n, which divides each value once, to an int where n divides it.
    """
    ops = {1: f}
    for n in range(1, N):
        ops[n + 1] = rho_combination(
            ((h, ops[n - h + 1], (-1) ** h) for h in range(1, n + 1)), n)
    return ops


def exp_rho_family(base: MultiOp, coefficients: dict, max_degree: int) -> dict:
    """Components of exp(sum_n coefficients[n] * rho_n) applied to ``base``.

    Returns a map from operator degree to component.  Each rho_n raises the
    degree by n, so only finitely many words contribute below the cutoff and
    no convergence argument is needed; a nonzero coefficient at n < 1 is
    refused, as rho_0 keeps the degree and the series would never end.

    The k-th term of the series, term_k = (1/k) sum_n c_n rho_n(term_(k-1)),
    is built as T_k = k! L^k term_k, where L is the lcm of the coefficient
    denominators; T_k = sum_n (L c_n) rho_n(T_(k-1)) has int weights, and
    its part of each degree is one :func:`~.multilinear.rho_combination`
    node.  Every component is written over one divisor: with K the number
    of passes the loop made and scale(j) = K!/j! L^(K-j), term_j is
    scale(j) T_j / scale(0), so a component below ``max_degree`` is one
    :func:`~.multilinear.op_combination` of the T_j of its degree with int
    weights scale(j) over the divisor scale(0), which divides each value
    once.

    No part of degree ``max_degree`` is read again, so that component takes
    one rho term per n instead of one per (k, n): by the linearity of rho_n
    it is (sum_n (L c_n) rho_n(G_n)) / scale(0), with G_n the int
    combination sum_j scale(j+1) T_j of the parts of degree
    max_degree - n, and it is one rho_combination node with that divisor.
    """
    coefficients = {n: c for n, c in coefficients.items() if c}
    if any(n < 1 for n in coefficients):
        raise ValueError("exp_rho_family needs coefficients at n >= 1 only")
    L = lcm(*(int(c.denominator) for c in coefficients.values()))
    weights = {n: int(c.numerator) * (L // int(c.denominator))
               for n, c in coefficients.items()}
    levels = {base.degree: {0: base}}  # degree -> {k: part of T_k}
    top = {}  # n -> [(j, part of T_j of degree max_degree - n)]
    term = {base.degree: base}
    K = 0
    while term and min(term) < max_degree:
        K += 1
        pieces = {}
        for d, op in term.items():
            for n, w in weights.items():
                if d + n < max_degree:
                    pieces.setdefault(d + n, []).append((n, op, w))
                elif d + n == max_degree:
                    top.setdefault(n, []).append((K - 1, op))
        term = {d: rho_combination(terms) for d, terms in pieces.items()}
        for d, op in term.items():
            levels.setdefault(d, {})[K] = op

    def scale(j):
        return factorial(K) // factorial(j) * L ** (K - j)

    components = {
        d: op_combination(((op, scale(j)) for j, op in parts.items()), scale(0))
        for d, parts in levels.items()
    }
    if top:
        components[max_degree] = rho_combination(
            ((n, op_combination((op, scale(j + 1)) for j, op in parts),
              weights[n]) for n, parts in top.items()), scale(0))
    return components


def _exponential_ops(f: MultiOp, N: int) -> dict:
    """Phi^1..Phi^N from the gauge trivialization exp(-sum K_n rho_n) f."""
    koszul = koszul_numbers_recursive(max(N - 1, 1))
    coeffs = {n: -koszul[n] for n in range(1, N)}
    components = exp_rho_family(f, coeffs, N - 1)
    return {n: components[n - 1] for n in range(1, N + 1)}


_METHODS = {
    "direct": lambda f, N: {n: phi_direct_op(f, n) for n in range(1, N + 1)},
    "recursion": _recursion_ops,
    "bracket": _bracket_ops,
    "exponential": _exponential_ops,
}


def phi_hierarchy(f: MultiOp, N: int, method=None) -> dict:
    """{n: Phi^n_f} for n = 1..N by the chosen construction.

    The default is the signature's defining construction: the shuffle
    formula (``direct``) when it is commutative, the bracket recursion
    otherwise.
    """
    _require_linear(f)
    if N < 1:
        raise ValueError("N must be >= 1")
    if method is None:
        method = "direct" if f.signature.commutative else "bracket"
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _METHODS[method](f, N)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _block_signs(parities: tuple) -> list:
    """Every block's :func:`~.multilinear._shuffle_signs` table, by bit
    mask, for arguments of parities ``parities``."""
    rows, _ = _shuffle_shapes((1,) * len(parities))
    return [_shuffle_signs(row[2](parities))[0] for row in rows]


def inversion_check(f: MultiOp, n: int, args) -> bool:
    """f(a_1...a_n) == sum over shuffles of Phi^k_f(block) * rest, exactly.

    The n arguments are basis monomials, read (at most n + 1 of them) as
    one tuple of basis indices; an element raises the ValueError of
    :meth:`~.superalgebra.Signature.index_of`.  The formula is multilinear
    and Koszul-symmetric, so its verdicts on basis monomials settle it for
    every element.  The tuple has one ``subset_products`` table: the
    product of every block, sub-block and complement.  Blocks and
    sub-blocks are read per bit mask of the caller's order, from the
    :func:`~.multilinear._shuffle_shapes` table of ``(1,) * n`` and the
    :func:`_block_signs` of the n parities.  Shuffles whose complement's
    product dies are skipped; each other block, the whole one last, is one
    :func:`_shuffle_terms` with the complement product as its outer factor,
    all summed by sub-block and keyed by :func:`_formal_terms`.  Only then
    does :func:`_read_terms` read f, for the keys whose coefficient
    survives: a check that holds term by term reads no image.
    """
    _require_linear(f)
    if n < 1:
        raise ValueError("n must be >= 1")
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the shuffle formula needs a commutative signature")
    tup = tuple(map(sig.index_of, islice(args, n + 1)))
    if len(tup) != n:
        raise ValueError("argument count must equal n")
    full = (1 << n) - 1
    basis_parities = sig.basis_parities()
    tables = _block_signs(tuple(basis_parities[i] for i in tup))
    signs = tables[full]
    rows, _ = _shuffle_shapes((1,) * n)
    products = sig.subset_products(tup)
    acc = [0] * (full + 1)  # by sub-block, as _shuffle_terms sums
    acc[full] = 1  # lhs
    for block in range(1, full + 1):
        # the whole block has no complement, and signs[full] is +1
        r, tail = products[full ^ block] if block != full else (1, None)
        if r:  # else the complement's product dies
            _shuffle_terms(acc, sig, products, rows[block][5], tables[block],
                           -signs[block] * r, tail)
    terms = {}  # (j, u) -> coeff of f(basis[j]) * basis[u]
    _formal_terms(terms, products, rows[full][5], acc)
    diff = {}
    _read_terms(diff, f, terms)
    return not any(diff.values())


def jacobi_rhs(phis_f, phis_g, n: int) -> MultiOp:
    """sum_(i=1..n) [Phi^i_f, Phi^(n+1-i)_g], the right-hand side of the
    generalized Jacobi identity, from the brackets of two hierarchies."""
    return op_combination(
        (nr_bracket(phis_f[i], phis_g[n + 1 - i]), 1) for i in range(1, n + 1)
    )


def linfinity_check(delta: MultiOp, N: int) -> bool:
    """Vanishing of every generalized Jacobi sum of a square-zero odd operator."""
    _require_linear(delta)
    if delta.parity != 1:
        raise ValueError("operator must be odd")
    if not is_zero_op(nr_product(delta, delta)):
        raise ValueError("operator must be square-zero")
    phis = phi_hierarchy(delta, N)
    for n in range(1, N + 1):
        if not is_zero_op(jacobi_rhs(phis, phis, n)):
            return False
    return True


def differential_order_check(f: MultiOp, n: int) -> bool:
    """Whether Phi^(n+1)_f vanishes, i.e., f(1) = 0 and f has order <= n."""
    _require_linear(f)
    sig = f.signature
    if not sig.unital:
        raise ValueError("the order criterion needs a unital signature")
    if not sig.commutative:
        raise ValueError("the order criterion needs a commutative signature")
    return is_zero_op(phi_direct_op(f, n + 1))

