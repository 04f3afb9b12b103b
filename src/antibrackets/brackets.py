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

from functools import cache, lru_cache
from math import factorial, lcm

from .combinatorics import koszul_numbers_recursive
from .multilinear import (
    SHAPE_CACHE_SIZE,
    MultiOp,
    is_zero_op,
    nr_bracket,
    nr_product,
    op_combination,
    rho_combination,
)
from .rational import rat
from .superalgebra import AlgebraElement, koszul_sign, shuffles

__all__ = [
    "phi_direct_op",
    "phi_hierarchy",
    "inversion_check",
]


def _require_linear(f: MultiOp):
    if f.degree != 0:
        raise ValueError(f"needs a linear operator (degree 0), got degree {f.degree}")


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _direct_signs(pattern: tuple) -> list:
    """Sign of each block of the shuffle formula, by bit mask of positions,
    for arguments of parities ``pattern``: (-1)^(n-k) times the Koszul sign
    of moving the k block arguments in front of the complement."""
    n = len(pattern)
    signs = [0]
    for mask in range(1, 1 << n):
        block = tuple(i for i in range(n) if mask >> i & 1)
        rest = tuple(i for i in range(n) if not mask >> i & 1)
        signs.append((-1) ** len(rest) * koszul_sign(block + rest, pattern))
    return signs


def _shuffle_sum(f: MultiOp, tup, top: int) -> dict:
    """Phi^n_f on the basis indices ``tup``, in any order, to degree <= top:
    the sum over nonempty blocks B of k arguments of (-1)^(n-k) times the
    Koszul sign (:func:`_direct_signs`) times f(product of B) times the
    product of the complement, both from one ``subset_products`` table."""
    sig = f.signature
    products = sig.subset_products(tup)
    signs = _direct_signs(tuple(map(sig.basis_parities().__getitem__, tup)))
    degrees = sig.basis_degrees()
    full = len(products) - 1
    acc = {}
    for mask in range(1, full + 1):
        s, j = products[mask]
        image = f._canonical_value((j,)) if s else None
        if not image:
            continue
        total = s * signs[mask]
        if mask == full:
            for t, c in image.items():
                if degrees[t] <= top:
                    acc[t] = acc.get(t, 0) + total * c
            continue
        r, tail = products[full ^ mask]
        if r:
            sig.mul_into(acc, image.items(), tail, r * total, top)
    return {t: c for t, c in acc.items() if c}


def phi_direct_op(f: MultiOp, n: int) -> MultiOp:
    """Phi^n_f by the defining shuffle formula (commutative signatures),
    computed on basis indices by :func:`_shuffle_sum` at the degree bound."""
    _require_linear(f)
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the shuffle formula needs a commutative signature")
    if n < 1:
        raise ValueError("n must be >= 1")
    return MultiOp(sig, n - 1, f.parity,
                   lambda tup: _shuffle_sum(f, tup, sig.degree_bound))


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
    """
    coefficients = {n: c for n, c in coefficients.items() if c}
    if any(n < 1 for n in coefficients):
        raise ValueError("exp_rho_family needs coefficients at n >= 1 only")
    lcm_den = lcm(*(int(rat(c).denominator) for c in coefficients.values()))
    weights = {n: int(c * lcm_den) for n, c in coefficients.items()}
    levels = {base.degree: {0: base}}  # degree -> {k: part of T_k}
    term = {base.degree: base}
    k = 1
    while term and min(term) < max_degree:
        pieces = {}
        for d, op in term.items():
            for n, w in weights.items():
                if d + n <= max_degree:
                    pieces.setdefault(d + n, []).append((n, op, w))
        term = {d: rho_combination(terms) for d, terms in pieces.items()}
        for d, op in term.items():
            levels.setdefault(d, {})[k] = op
        k += 1
    return {
        d: op_combination((op, rat(1, factorial(k) * lcm_den**k))
                          for k, op in parts.items())
        for d, parts in levels.items()
    }


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


def inversion_check(f: MultiOp, n: int, args) -> bool:
    """f(a_1...a_n) == sum over shuffles of Phi^k_f(block) * rest, exactly.

    Both sides are multilinear, so lhs - rhs is summed into one dict over
    the combinations of the arguments' basis indices.  A shuffle whose
    complement's product (from one ``subset_products`` table, exact as the
    truncated algebra is associative) dies is skipped; otherwise its block
    is evaluated by :func:`_shuffle_sum`, memoised, to the degree left.
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
    plan = [(perm[:k], sum(1 << q for q in perm[k:]), koszul_sign(perm, parities))
            for k in range(1, n) for perm in shuffles(k, n - k)]
    degrees, top = sig.basis_degrees(), sig.degree_bound
    phi = cache(lambda block, cap: _shuffle_sum(f, block, cap).items())
    diff = {}
    for tup, coeff in combos:
        products = sig.subset_products(tup)
        s, j = products[-1]
        # lhs, and the one shuffle with k = n, which has no complement
        for value, c in ((f._canonical_value((j,)) if s else {}, s * coeff),
                         (_shuffle_sum(f, tup, top), -coeff)):
            for t, v in value.items():
                diff[t] = diff.get(t, 0) + c * v
        for block, rest, sign in plan:
            r, tail = products[rest]
            if r:  # else the complement's product dies
                sig.mul_into(diff, phi(tuple(tup[q] for q in block),
                                       top - degrees[tail]),
                             tail, -sign * r * coeff)
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

