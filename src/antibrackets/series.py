"""Truncated formal power series over exact rationals.

A series of order N is the plain list of its N+1 coefficients: ``a[k]`` is
the coefficient of t^k, and N = ``len(a) - 1`` is at least 1.  Coefficients
are ints or rationals, and no operation divides one with ``/``.  Operations
never silently mix orders: two series combined must have the same length.
On top of the ring structure this module implements the iterative
exponential exp(a d/dt)(t) and logarithm, and the identity checks built from
them (Julia's equation, the Hurwitz-number series a_d(z), the
nilpotent-exponential check on the graded variable space, and the Stirling
formula for derivatives of f(e^t - 1)).
"""

from __future__ import annotations

from math import comb, factorial, gcd, lcm
from operator import mul

from .combinatorics import koszul_numbers_recursive, stirling2
from .rational import rat

__all__ = ["koszul_numbers_itlog"]


def _check_order(N: int) -> None:
    if N < 1:
        raise ValueError("order must be >= 1")


def _order(a: list) -> int:
    """The order N of ``a``, refusing a list of fewer than two coefficients."""
    N = len(a) - 1
    _check_order(N)
    return N


def _common_order(a: list, b: list) -> int:
    if len(a) != len(b):
        raise ValueError(f"order mismatch: {len(a) - 1} != {len(b) - 1}")
    return _order(a)


def _derivative(a: list) -> list:
    """Termwise derivative, accurate (and truncated) to order N-1."""
    return [k * a[k] for k in range(1, len(a))]


def _exp_form(a: list) -> tuple:
    """(E, d), the exponential form of a: ints with a_k = E[k] / (k! d), d least."""
    pairs = [(int(c.numerator) * factorial(k), int(c.denominator))
             for k, c in enumerate(a)]
    d = lcm(*(q // gcd(p, q) for p, q in pairs))
    return [p * d // q for p, q in pairs], d


def _kernel(w: tuple, x: list, y: list, shift: int = 0) -> list:
    """w(L) y = sum_k w_k L^k(y), for x and y of one order N, L(v) = x v
    (shift 0) or x v' (shift 1, exact to order N when x(0) = 0), and w given
    by its exponential form (C, c).  On exponential forms, entry m of L(v) is
    sum_i C(m, i) X[i] V[m - i + shift] over m - i + shift <= N; the terms
    C[k] L^k(y) / k! are summed by Horner over one denominator."""
    (C, c), (X, dx), (V, D) = w, _exp_form(x), _exp_form(y)
    rows = [[comb(m, i) * X[i] for i in range(m + 1)] for m in range(len(X))]
    S = [C[0] * v for v in V]
    for k in range(1, len(C)):
        lead = max(shift, next((j for j, v in enumerate(V) if v), len(V)))
        V.append(0)  # V[N + 1] = 0: v' is truncated at order N
        V = [sum(map(mul, row, V[lead:m + shift + 1][::-1]))
             for m, row in enumerate(rows)]
        S = [s * k * dx + C[k] * v for s, v in zip(S, V)]
        D *= k * dx
    return [rat(s, factorial(m) * D * c) for m, s in enumerate(S)]


def series_mul(a: list, b: list) -> list:
    """Cauchy product truncated at the common order."""
    _common_order(a, b)
    return _kernel(([0, 1], 1), a, b)  # w = t, so w(L) b = a b


def series_compose(f: list, g: list) -> list:
    """f(g(t)) = sum_k f_k g^k; g must have zero constant term."""
    N = _common_order(f, g)
    if g[0]:
        raise ValueError("composition requires g(0) = 0")
    return _kernel(_exp_form(f), g, [1] + [0] * N)


def _check_itlog_domain(a: list) -> None:
    _order(a)
    if a[0] or a[1]:
        raise ValueError("series must satisfy a(0) = a'(0) = 0")


def _derivation_apply(a: list, f: list) -> list:
    """a * f' exactly to the common order (valid because a has valuation >= 2)."""
    return _kernel(([0, 1], 1), a, f, 1)


def itexp(a: list) -> list:
    """Iterative exponential exp(a d/dt)(t), for a with a(0) = a'(0) = 0.

    Each application of a d/dt raises the valuation, so the exponential sum
    is finite at any truncation order.
    """
    _check_itlog_domain(a)
    return _kernel(([1] * len(a), 1), a, [0, 1] + [0] * (len(a) - 2), 1)


def itlog(g: list) -> list:
    """Iterative logarithm: the unique a with a(0)=a'(0)=0 and itexp(a) = g.

    Computed order by order, filling in the terms of itexp as it goes.  With
    T_1 = a and T_k = (a d/dt) T_(k-1) / k, itexp(a) = t + sum_k T_k.  In the
    exponential form A_m = m! a_m, V_k[m] = k! m! T_k[m], the recurrence
    V_k[m] = sum_(j=k..m-1) C(m, j-1) A_(m+1-j) V_(k-1)[j] has no division
    and reads only A_2..A_(m-k+1), and A_m = m! g_m - sum_(k=2..m-1) V_k[m]/k!.
    The A_m are ints over one running denominator Q and the V_k ints over
    Q^k; when a new A_m brings a factor that Q lacks, Q grows and the stored
    values are rescaled once.  The cost is about N^3/6 integer
    multiply-adds and one gcd per order.
    """
    N = _order(g)
    if g[0] or g[1] != 1:
        raise ValueError("series must satisfy g(0) = 0 and g'(0) = 1")
    G, dg = _exp_form(g)  # m! g_m = G[m] / dg
    A = [0] * (N + 1)  # numerators of A_m over Q
    V = [None, A]  # V[k][m]: numerator of V_k[m] over Q^k
    Q = 1
    for m in range(2, N + 1):
        V.append([0] * (N + 1))
        w = [0, 0, *(comb(m, j - 1) * A[m + 1 - j] for j in range(2, m))]
        rest = 0  # numerator of sum_k V_k[m]/k! over (m-1)! Q^(m-1), by Horner
        for k in range(2, m):
            V[k][m] = vkm = sum(map(mul, w[k:m], V[k - 1][k:m]))
            rest = rest * k * Q + vkm
        den = factorial(m - 1) * Q ** (m - 1) * dg
        num = G[m] * (den // dg) - rest * dg  # A_m = num / den
        grow = den // gcd(den, num * Q)
        if grow > 1:
            factor = 1
            for k in range(1, m):
                factor *= grow
                V[k][:m + 1] = [v * factor for v in V[k][:m + 1]]
            Q *= grow
        A[m] = num * Q // den
    return [rat(A[m], Q * factorial(m)) for m in range(N + 1)]


def exp_minus_one(order: int) -> list:
    """e^t - 1, built from factorials."""
    _check_order(order)
    return [rat(0)] + [rat(1, factorial(k)) for k in range(1, order + 1)]


def log_one_plus(order: int) -> list:
    """log(1 + t)."""
    _check_order(order)
    return [rat(0)] + [rat((-1) ** (k + 1), k) for k in range(1, order + 1)]


def koszul_numbers_itlog(N: int) -> list:
    """K_1..K_N from K_n = (n+1)! [t^(n+1)] itlog(e^t - 1).

    Returns a list of length N+1 with entry 0 unused, matching the layout of
    the routes in :mod:`antibrackets.combinatorics`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = itlog(exp_minus_one(N + 1))
    return [rat(0)] + [factorial(n + 1) * a[n + 1] for n in range(1, N + 1)]


def julia_check(a: list, N: int) -> bool:
    """a(g(t)) == a(t) g'(t) with g = itexp(a), coefficient-wise to order N."""
    _check_itlog_domain(a)
    if not 1 <= N < len(a):
        raise ValueError("need 1 <= N <= the order of a")
    a = a[:N + 1]
    g = itexp(a)
    lhs = series_compose(a, g)
    rhs = _derivation_apply(a, g)  # a * g', exact to order N
    return lhs == rhs


def hurwitz_series(d: int, N: int) -> list:
    """a_d(z) = sum_b (-1)^(d-b)/d! C(d,b) / (1 - (b+1)z), truncated at order N;
    each coefficient is an int sum divided once by d!."""
    if d < 0:
        raise ValueError("d must be >= 0")
    _check_order(N)
    signed = [(-1) ** (d - b) * comb(d, b) for b in range(d + 1)]
    return [rat(sum(c * (b + 1) ** n for b, c in enumerate(signed)), factorial(d))
            for n in range(N + 1)]


def graded_exponential_check(d: int, D: int) -> bool:
    """Compare exp(sum K_n r_n)(t_d) with the a_d coefficients on indices <= D.

    The derivation r_n sends the graded variable t_k to C(k+n+1, n+1)
    t_(k+n).  Read t_k as z^(k+1)/(k+1)!; then r_n is (z^(n+1)/(n+1)!) d/dz,
    and the exponential is one kernel call on series of order D + 1, finite
    as each r_n raises the index.
    """
    if not 0 <= d <= D or D < 1:
        raise ValueError("need 0 <= d <= D and D >= 1")
    koszul = koszul_numbers_recursive(D)
    x = [0, 0, *(rat(K.numerator, K.denominator * factorial(n + 1))
                 for n, K in enumerate(koszul[1:], 1))]
    y = [0] * (D + 2)
    y[d + 1] = rat(1, factorial(d + 1))
    image = _kernel(([1] * (D + 2), 1), x, y, 1)
    t = [factorial(k + 1) * image[k + 1] for k in range(D + 1)]
    return t == [0] * d + hurwitz_series(d, D)[d:]


def stirling_derivative_check(f: list, n: int, N: int) -> bool:
    """g^(n) == sum_k {n k} f^(k)(e^t - 1) e^(kt) for g = f(e^t - 1), to order N-n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if N <= n or len(f) - 1 < N:
        raise ValueError("truncation order too small")
    f = f[:N + 1]
    e = exp_minus_one(N)
    lhs = series_compose(f, e)
    for _ in range(n):
        lhs = _derivative(lhs)
    M = N - n  # the order of both sides
    rhs = [rat(0)] * (M + 1)
    fk = f
    for k in range(1, n + 1):
        fk = _derivative(fk)  # f^(k), order N-k
        s = stirling2(n, k)
        if not s:
            continue
        comp = series_compose(fk[:M + 1], e[:M + 1])
        ekt = [rat(k**j, factorial(j)) for j in range(M + 1)]
        rhs = [r + s * c for r, c in zip(rhs, series_mul(comp, ekt))]
    return lhs == rhs
