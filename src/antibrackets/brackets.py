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

import itertools
from math import factorial, lcm

from .combinatorics import koszul_numbers_recursive
from .multilinear import (
    MultiOp,
    canonical_index_tuples,
    is_zero_op,
    nr_bracket,
    nr_product,
    op_combination,
    rho,
)
from .rational import format_rational, rat
from .superalgebra import AlgebraElement, koszul_sign, shuffles

__all__ = [
    "phi_direct_op",
    "phi_hierarchy",
    "exp_rho_family",
    "inversion_check",
    "jacobi_rhs",
    "linfinity_check",
    "differential_order_check",
    "hierarchy_to_json",
]


def _require_linear(f: MultiOp):
    if f.degree != 0:
        raise ValueError(f"needs a linear operator (degree 0), got degree {f.degree}")


def phi_direct_op(f: MultiOp, n: int) -> MultiOp:
    """Phi^n_f by the defining shuffle formula (commutative signatures).

    A value is computed on basis indices: f is read on each block's
    product, and that image is multiplied by the product of the complement.
    """
    _require_linear(f)
    sig = f.signature
    if not sig.commutative:
        raise ValueError("the shuffle formula needs a commutative signature")
    if n < 1:
        raise ValueError("n must be >= 1")
    positions = range(n)
    read_f = f._canonical_value

    def eval_basis(tup):
        basis_parities = sig.basis_parities()
        parities = [basis_parities[i] for i in tup]
        acc = {}
        for k in range(1, n + 1):
            outer_sign = (-1) ** (n - k)
            for block in itertools.combinations(positions, k):
                s, j = sig.mul_indices([tup[i] for i in block])
                image = read_f((j,)) if s else None
                if not image:
                    continue
                rest = tuple(i for i in positions if i not in block)
                total = s * outer_sign * koszul_sign(block + rest, parities)
                if not rest:
                    for t, c in image.items():
                        acc[t] = acc.get(t, 0) + total * c
                    continue
                r, tail = sig.mul_indices([tup[i] for i in rest])
                if r:
                    sig.mul_into(acc, image.items(), tail, r * total)
        return {t: c for t, c in acc.items() if c}

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
    with integer weights, so integer data stays integer throughout.  Each
    returned Phi^(n+1) is Psi_(n+1) divided once by n!.
    """
    psi = {1: f}
    ops = {1: psi[1]}
    for n in range(1, N):
        psi[n + 1] = op_combination(
            (rho(h, psi[n - h + 1]),
             (-1) ** h * (factorial(n - 1) // factorial(n - h)))
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
    denominators; T_k = sum_n (L c_n) rho_n(T_(k-1)) has integer weights.
    A component collects the T_k of its degree over the common denominator
    K! L^K of the largest K contributing, and divides once by it.
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
                    pieces.setdefault(d + n, []).append((rho(n, op), w))
        term = {d: op_combination(terms) for d, terms in pieces.items()}
        for d, op in term.items():
            levels.setdefault(d, {})[k] = op
        k += 1
    result = {}
    for d, parts in levels.items():
        top = max(parts)
        total = op_combination(
            (op, factorial(top) // factorial(j) * lcm_den ** (top - j))
            for j, op in parts.items()
        )
        result[d] = op_combination([(total, rat(1, factorial(top) * lcm_den**top))])
    return result


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

    Each shuffle's Phi value is multiplied once by the product of its
    complement arguments, memoised per complement, instead of by one
    argument after another.  The two agree exactly because the truncated
    algebra is associative: it is the quotient of an associative algebra by
    the two-sided ideal of elements of degree > D.  A complement whose
    product dies contributes nothing, so its Phi value is never computed.
    """
    _require_linear(f)
    if n < 1:
        raise ValueError("n must be >= 1")
    sig = f.signature
    args = [
        a if isinstance(a, AlgebraElement) else sig.monomial_element(a)
        for a in args
    ]
    if len(args) != n:
        raise ValueError("argument count must equal n")
    parities = []
    for a in args:
        p = a.parity()
        if p is None:
            raise ValueError("inversion check needs homogeneous arguments")
        parities.append(p)
    products = {}  # tuple of argument positions -> their ordered product

    def product(positions):
        value = products.get(positions)
        if value is None:
            value = args[positions[-1]]
            if len(positions) > 1:
                value = product(positions[:-1]) * value
            products[positions] = value
        return value

    lhs = f(product(tuple(range(n))))
    phis = {k: phi_direct_op(f, k) for k in range(1, n + 1)}
    rhs = {}
    for k in range(1, n + 1):
        for perm in shuffles(k, n - k):
            rest = perm[k:]
            tail = product(rest) if rest else None
            if tail is not None and tail.is_zero():
                continue
            val = phis[k](*(args[i] for i in perm[:k]))
            if tail is not None:
                val = val * tail
            sign = koszul_sign(perm, parities)
            for m, c in val.terms.items():
                rhs[m] = rhs.get(m, 0) + sign * c
    return lhs == AlgebraElement(sig, rhs)


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


def hierarchy_to_json(h: dict, max_total_degree=None) -> list:
    """JSON-ready tables of a hierarchy {n: Phi^n}:
    [{"n": k, "table": [[tuple, element], ...]}, ...]."""
    sig = h[1].signature
    names = [sig.monomial_str(m) for m in sig.basis()]
    out = []
    for n, op in sorted(h.items()):
        table = []
        for tup in canonical_index_tuples(sig, op.arity, max_total_degree):
            val = op._canonical_value(tup)
            if not val:
                continue
            table.append(
                [
                    [names[i] for i in tup],
                    {names[k]: format_rational(c) for k, c in sorted(val.items())},
                ]
            )
        out.append({"n": n, "table": table})
    return out
