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
odd operators, and the order-of-differential-operator vanishing criterion.
The checks that ``verify`` runs on them are stated in :mod:`.checks`.

The operator f is a degree-0 :class:`~antibrackets.multilinear.MultiOp`,
which is Phi^1_f itself; the entry points refuse any other degree.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from math import factorial, lcm

from .combinatorics import koszul_numbers_recursive
from .multilinear import (
    MultiOp,
    _plan,
    _shuffle_shapes,
    _shuffle_signs,
    is_zero_op,
    nr_bracket,
    nr_product,
    op_combination,
    rho_combination,
)
from .rational import rat
from .superalgebra import AlgebraElement

__all__ = [
    "phi_direct_op",
    "phi_hierarchy",
    "inversion_check",
]


def _require_linear(f: MultiOp):
    if f.degree != 0:
        raise ValueError(f"needs a linear operator (degree 0), got degree {f.degree}")


def _shuffle_sum(sig, image, products, subs, signs, top: int) -> dict:
    """Phi^k_f on the k arguments at the positions of a block B of a
    ``subset_products`` table, to degree <= top: the sum over B's sub-block
    rows (S, B ^ S, rank, factor) of a :func:`~.multilinear._shuffle_shapes`
    table of factor times signs[rank] (``signs`` is the
    :func:`~.multilinear._shuffle_signs` table of B's parities) times
    f(product of S) times the product of B \\ S, both read from the table.
    Like terms, by (product of S, product of B \\ S), are summed before f is
    read.  ``image(j, room)`` gives f's image of basis[j] as (index, coeff)
    pairs: those of degree <= room, or all of them when top is the degree
    bound (the products above it die)."""
    degrees = sig.basis_degrees()
    terms = {}
    for sub, rest, rank, factor in subs:
        s, j = products[sub]
        if not s:
            continue
        tail = None
        if rest:
            r, tail = products[rest]
            if not r or degrees[tail] > top:
                continue
            s *= r
        key = (j, tail)
        terms[key] = terms.get(key, 0) + factor * s * signs[rank]
    acc = {}
    for (j, tail), c in terms.items():
        if not c:
            continue
        if tail is None:
            for t, v in image(j, top):
                acc[t] = acc.get(t, 0) + c * v
        elif pairs := image(j, top - degrees[tail]):
            sig.mul_into(acc, pairs, tail, c)
    return {t: c for t, c in acc.items() if c}


def phi_direct_op(f: MultiOp, n: int) -> MultiOp:
    """Phi^n_f by the defining shuffle formula (commutative signatures),
    computed on basis indices by :func:`_shuffle_sum` at the degree bound,
    on the ``subset_products`` table of the tuple's
    :func:`~.multilinear._plan` and f's whole images.  The sub-blocks are the
    full block's rows in the plan's :func:`~.multilinear._shuffle_shapes`
    table: one per sub-multiset, weighted by the number of sub-blocks that
    pick it."""
    _require_linear(f)
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the shuffle formula needs a commutative signature")
    if n < 1:
        raise ValueError("n must be >= 1")

    def image(j, room):
        return f._canonical_value((j,)).items()

    def eval_basis(tup):
        products, signs, _, rows, _ = _plan(sig, tup)
        return _shuffle_sum(sig, image, products, rows[-1][5], signs,
                            sig.degree_bound)

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
            return {k: v for k, v in acc.items() if v}

        ops[r] = MultiOp(sig, r - 1, f.parity, eval_basis)
    return ops


def _bracket_ops(f: MultiOp, N: int) -> dict:
    """Phi^1..Phi^N by the bracket recursion, on integer-scaled operators.

    Phi^(n+1) = (1/n) sum_h (-1)^h [mu_h, Phi^(n-h+1)] divides at every
    level.  The recursion runs instead on Psi_(n+1) = n! Phi^(n+1), which
    satisfies Psi_(n+1) = sum_h (-1)^h ((n-1)!/(n-h)!) [mu_h, Psi_(n-h+1)]
    with integer weights, so integer data stays integer throughout; each
    Psi_(n+1) is one :func:`~.multilinear.rho_combination` node.  Each
    returned Phi^(n+1) is Psi_(n+1) divided once by n!.
    """
    psi = {1: f}
    ops = {1: psi[1]}
    for n in range(1, N):
        psi[n + 1] = rho_combination(
            (h, psi[n - h + 1], (-1) ** h * (factorial(n - 1) // factorial(n - h)))
            for h in range(1, n + 1)
        )
        ops[n + 1] = op_combination([(psi[n + 1], rat(1, factorial(n)))])
    return ops


def exp_rho_family(base: MultiOp, coefficients: dict, max_degree: int) -> dict:
    """Components of exp(sum_n coefficients[n] * rho_n) applied to ``base``.

    Returns a map from operator degree to component.  Each rho_n raises the
    degree by n, so only finitely many words contribute below the cutoff and
    no convergence argument is needed; a nonzero coefficient at n < 1 is
    refused, as rho_0 keeps the degree and the series would never end.

    The k-th term of the series, term_k = (1/k) sum_n c_n rho_n(term_(k-1)),
    is built as T_k = k! L^k term_k, where L is the lcm of the coefficient
    denominators; T_k = sum_n (L c_n) rho_n(T_(k-1)) has integer weights,
    and its part of each degree is one :func:`~.multilinear.rho_combination`
    node.  A component is one combination of the T_k of its degree with
    weights 1/(k! L^k), which :func:`~.multilinear.op_combination` sums over
    their common denominator K! L^K (K the largest k contributing) and
    divides once per entry.

    No part of degree ``max_degree`` is read again, so that component takes
    one rho term per n instead of one per (k, n): by the linearity of rho_n
    it is (1/(K! L^K)) sum_n (L c_n) rho_n(G_n), with G_n the integer
    combination sum_j (K!/(j+1)!) L^(K-j-1) T_j of the parts of degree
    max_degree - n.
    """
    coefficients = {n: c for n, c in coefficients.items() if c}
    if any(n < 1 for n in coefficients):
        raise ValueError("exp_rho_family needs coefficients at n >= 1 only")
    lcm_den = lcm(*(int(rat(c).denominator) for c in coefficients.values()))
    weights = {n: int(c * lcm_den) for n, c in coefficients.items()}
    levels = {base.degree: {0: base}}  # degree -> {k: part of T_k}
    top = {}  # n -> [(j, part of T_j of degree max_degree - n)]
    term = {base.degree: base}
    k = 1
    while term and min(term) < max_degree:
        pieces = {}
        for d, op in term.items():
            for n, w in weights.items():
                if d + n < max_degree:
                    pieces.setdefault(d + n, []).append((n, op, w))
                elif d + n == max_degree:
                    top.setdefault(n, []).append((k - 1, op))
        term = {d: rho_combination(terms) for d, terms in pieces.items()}
        for d, op in term.items():
            levels.setdefault(d, {})[k] = op
        k += 1
    components = {
        d: op_combination((op, rat(1, factorial(k) * lcm_den**k))
                          for k, op in parts.items())
        for d, parts in levels.items()
    }
    if top:
        K = 1 + max(j for parts in top.values() for j, _ in parts)
        rhos = rho_combination(
            (n, op_combination((op, factorial(K) // factorial(j + 1)
                                * lcm_den ** (K - j - 1)) for j, op in parts),
             weights[n])
            for n, parts in top.items())
        components[max_degree] = op_combination(
            [(rhos, rat(1, factorial(K) * lcm_den**K))])
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


def _image_prefixes(f: MultiOp):
    """A reader ``image(j, room)`` of f's image of basis[j] to degree <= room,
    as a prefix of the image's (index, coeff) pairs in index order.  On its
    first read an image is sorted, copied only if its keys are out of index
    order, and the reader keeps the prefix length for every room.

    In :func:`inversion_check` every read of f(S) has the room D minus the
    degree of S's complement, so its verdict holds whatever the cut; a wrong
    cut shows in the values of :func:`_shuffle_sum` only."""
    sig = f.signature
    sig.basis()
    prefix = sig._prefix  # r -> number of basis monomials of degree <= r
    images = {}

    def image(j, room):
        read = images.get(j)
        if read is None:
            value = f._canonical_value((j,))
            keys = sorted(value)
            if keys != list(value):
                value = {k: value[k] for k in keys}
            read = images[j] = (value.items(), [bisect_left(keys, p) for p in prefix])
        items, cuts = read
        return islice(items, cuts[room]) if cuts[room] else ()

    return image


def inversion_check(f: MultiOp, n: int, args) -> bool:
    """f(a_1...a_n) == sum over shuffles of Phi^k_f(block) * rest, exactly.

    Both sides are multilinear, so lhs - rhs is summed into one dict over
    the combinations of the arguments' basis indices.  Each combination has
    one ``subset_products`` table (exact, as the truncated algebra is
    associative), which gives the product of every block, of every
    sub-block and of every complement.  A shuffle whose complement's product
    dies is skipped; otherwise its block's Phi is :func:`_shuffle_sum` on
    that table, kept to the degree the complement leaves and memoised per
    (block indices, cap).  The arguments come in the caller's order, so
    blocks and sub-blocks are read one per bit mask, from the
    :func:`~.multilinear._shuffle_shapes` table of ``(1,) * n``; a block's
    sign is its entry in the
    :func:`~.multilinear._shuffle_signs` table of the n parities.  f's images
    are sorted once per check (:func:`_image_prefixes`), so each is read only
    up to the degree that can survive its product.
    """
    _require_linear(f)
    if n < 1:
        raise ValueError("n must be >= 1")
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the shuffle formula needs a commutative signature")
    combos, parities = [((), 1)], []
    for a in args:
        a = a if isinstance(a, AlgebraElement) else sig.monomial_element(a)
        if a.signature != sig:
            raise ValueError("signature mismatch")
        p = a.parity()
        if p is None:
            raise ValueError("inversion check needs homogeneous arguments")
        if len(parities) == n:  # before any more products are expanded
            raise ValueError("argument count must equal n")
        parities.append(p)
        combos = [(tup + (i,), coeff * c)
                  for tup, coeff in combos for i, c in a.terms.items()]
    if len(parities) != n:
        raise ValueError("argument count must equal n")
    full = (1 << n) - 1
    patterns = [()]  # by bit mask: the parities of the block's arguments
    for p in parities:
        patterns += [pattern + (p,) for pattern in patterns]
    signs = [_shuffle_signs(pattern)[0] for pattern in patterns]
    rows, _ = _shuffle_shapes((1,) * n)
    degrees, top = sig.basis_degrees(), sig.degree_bound
    image = _image_prefixes(f)
    phi = {}
    diff = {}
    for tup, coeff in combos:
        products = sig.subset_products(tup)
        s, j = products[full]
        # lhs, and the one shuffle with k = n, which has no complement
        phi_n = _shuffle_sum(sig, image, products, rows[full][5], signs[full], top)
        for value, c in ((image(j, top) if s else (), s * coeff),
                         (phi_n.items(), -coeff)):
            for t, v in value:
                diff[t] = diff.get(t, 0) + c * v
        for block in range(1, full):
            r, tail = products[full ^ block]
            if not r:  # the complement's product dies
                continue
            cap = top - degrees[tail]
            key = (rows[block][2](tup), cap)
            value = phi.get(key)
            if value is None:
                value = phi[key] = _shuffle_sum(sig, image, products,
                                                rows[block][5], signs[block],
                                                cap).items()
            if value:
                sig.mul_into(diff, value, tail, -signs[full][block] * r * coeff)
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

