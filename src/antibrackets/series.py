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

from math import comb, factorial, gcd
from operator import mul

from .combinatorics import koszul_numbers_recursive, stirling2
from .rational import rat

__all__ = [
    "series_mul",
    "series_compose",
    "itexp",
    "itlog",
    "koszul_numbers_itlog",
    "julia_check",
    "hurwitz_series",
    "psi_of_series",
    "graded_exponential_check",
    "stirling_derivative_check",
    "exp_minus_one",
    "log_one_plus",
]


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


def series_mul(a: list, b: list) -> list:
    """Cauchy product truncated at the common order."""
    N = _common_order(a, b)
    out = [rat(0)] * (N + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(N + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def series_compose(f: list, g: list) -> list:
    """f(g(t)) by Horner's scheme; g must have zero constant term."""
    N = _common_order(f, g)
    if g[0]:
        raise ValueError("composition requires g(0) = 0")
    result = [f[N]] + [rat(0)] * N
    for k in range(N - 1, -1, -1):
        result = series_mul(result, g)
        result[0] += f[k]
    return result


def _check_itlog_domain(a: list) -> None:
    _order(a)
    if a[0] or a[1]:
        raise ValueError("series must satisfy a(0) = a'(0) = 0")


def _derivation_apply(a: list, f: list) -> list:
    """a * f' exactly to the common order (valid because a has valuation >= 2)."""
    N = len(a) - 1
    out = [rat(0)] * (N + 1)
    for i in range(2, N + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(1, N + 2 - i):
            fj = f[j]
            if fj:
                out[i + j - 1] += ai * j * fj
    return out


def itexp(a: list) -> list:
    """Iterative exponential exp(a d/dt)(t), for a with a(0) = a'(0) = 0.

    Each application of a d/dt raises the valuation, so the exponential sum
    is finite at any truncation order.
    """
    _check_itlog_domain(a)
    result = term = [0, 1] + [0] * (len(a) - 2)
    k = 1
    while True:
        term = [c * rat(1, k) for c in _derivation_apply(a, term)]
        if not any(term):
            return result
        result = [r + c for r, c in zip(result, term)]
        k += 1


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
    multiply-adds and one rational subtraction per order.
    """
    N = _order(g)
    if g[0] or g[1] != 1:
        raise ValueError("series must satisfy g(0) = 0 and g'(0) = 1")
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
        A_m = factorial(m) * g[m] - rat(rest, factorial(m - 1) * Q ** (m - 1))
        num, den = int(A_m.numerator), int(A_m.denominator)
        grow = den // gcd(den, Q)
        if grow > 1:
            factor = 1
            for k in range(1, m):
                factor *= grow
                V[k][:m + 1] = [v * factor for v in V[k][:m + 1]]
            Q *= grow
        A[m] = num * (Q // den)
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
    """a_d(z) = sum_b (-1)^(d-b)/d! C(d,b) / (1 - (b+1)z), truncated at order N."""
    if d < 0:
        raise ValueError("d must be >= 0")
    _check_order(N)
    return [
        sum(
            rat((-1) ** (d - b) * comb(d, b) * (b + 1) ** n, factorial(d))
            for b in range(d + 1)
        )
        for n in range(N + 1)
    ]


def psi_of_series(a: list) -> list:
    """The map z^n -> t^(n+1)/(n+1)! applied coefficient-wise."""
    _order(a)
    return [rat(0)] + [c * rat(1, factorial(n + 1)) for n, c in enumerate(a)]


def graded_exponential_check(d: int, D: int) -> bool:
    """Compare exp(sum K_n r_n)(t_d) with the a_d coefficients on indices <= D.

    The graded variables t_0..t_D are modelled as a coefficient vector; the
    derivation r_n sends t_k to C(k+n+1, n+1) t_(k+n), raising the index, so
    the exponential is nilpotent on the truncation.
    """
    if not 0 <= d <= D or D < 1:
        raise ValueError("need 0 <= d <= D and D >= 1")
    koszul = koszul_numbers_recursive(D)

    def apply_generator(vec):
        out = [rat(0)] * (D + 1)
        for k, c in enumerate(vec):
            if not c:
                continue
            for n in range(1, D - k + 1):
                out[k + n] += koszul[n] * comb(k + n + 1, n + 1) * c
        return out

    vec = [rat(0)] * (D + 1)
    vec[d] = rat(1)
    result = list(vec)
    term = vec
    j = 1
    while True:
        term = apply_generator(term)
        if all(not c for c in term):
            break
        # term holds the unscaled power R^j(vec); only the sum is weighted
        for k in range(D + 1):
            result[k] += term[k] * rat(1, factorial(j))
        j += 1
    expected = hurwitz_series(d, D)
    return all(
        result[k] == (expected[k] if k >= d else rat(0)) for k in range(D + 1)
    )


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
