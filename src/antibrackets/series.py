"""Truncated formal power series over exact rationals.

A series of order N is the plain list of its N+1 coefficients: ``a[k]`` is
the coefficient of t^k, and N = ``len(a) - 1`` is at least 1.  Coefficients
are ints or rationals.  Operations never silently mix orders: two series
combined must have the same length.  Below the functions that take and
return series, a series is held in exponential form (E, d), ints with
a_k = E[k] / (k! d): one kernel maps forms to forms, each function that
returns a series divides once per coefficient, and the identity checks
compare forms on ints.  On top of the kernel this module implements
composition, the iterative exponential exp(a d/dt)(t) and logarithm, and
the identity checks built from them (Julia's equation, psi of the
Hurwitz-number series a_d(z), the nilpotent-exponential check on the graded
variable space, and the Stirling formula for derivatives of f(e^t - 1)).
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


def _exp_form(a: list) -> tuple:
    """(E, d), the exponential form of a: ints with a_k = E[k] / (k! d), d least."""
    pairs = [(int(c.numerator) * factorial(k), int(c.denominator))
             for k, c in enumerate(a)]
    d = lcm(*(q // gcd(p, q) for p, q in pairs))
    return [p * d // q for p, q in pairs], d


def _coefficients(form: tuple) -> list:
    """The series of the exponential form (E, d): one division per entry."""
    E, d = form
    return [rat(e, factorial(m) * d) for m, e in enumerate(E)]


def _monomial_form(k: int, N: int) -> tuple:
    """The exponential form of t^k / k! at order N."""
    return [0] * k + [1] + [0] * (N - k), 1


def _same(x: tuple, y: tuple) -> bool:
    """Whether the exponential forms x and y are one series of one order."""
    (X, dx), (Y, dy) = x, y
    return [e * dy for e in X] == [e * dx for e in Y]


def _kernel(w: tuple, x: tuple, y: tuple, shift: int = 0) -> tuple:
    """The exponential form of w(L) y = sum_k w_k L^k(y), for w, x and y
    given by their exponential forms, x and y of one order N, and L(v) = x v
    (shift 0) or x v' (shift 1, exact to order N when x(0) = 0).  On forms,
    entry m of L(v) is sum_i C(m, i) X[i] V[m - i + shift] over
    m - i + shift <= N; the terms C[k] L^k(y) / k! are summed by Horner
    over one denominator, reduced to the least on return.  The lists of the
    given forms are read, never changed."""
    (C, c), (X, dx), (V, D) = w, x, y
    rows = [[comb(m, i) * X[i] for i in range(m + 1)] for m in range(len(X))]
    S = [C[0] * v for v in V]
    for k in range(1, len(C)):
        lead = max(shift, next((j for j, v in enumerate(V) if v), len(V)))
        V = [*V, 0]  # a copy with V[N + 1] = 0: v' is truncated at order N
        V = [sum(map(mul, row, V[lead:m + shift + 1][::-1]))
             for m, row in enumerate(rows)]
        S = [s * k * dx + C[k] * v for s, v in zip(S, V)]
        D *= k * dx
    g = gcd(D * c, *S)
    return [s // g for s in S], D * c // g


def series_compose(f: list, g: list) -> list:
    """f(g(t)) = sum_k f_k g^k; g must have zero constant term."""
    N = _common_order(f, g)
    if g[0]:
        raise ValueError("composition requires g(0) = 0")
    one = _monomial_form(0, N)
    return _coefficients(_kernel(_exp_form(f), _exp_form(g), one))


def _check_itlog_domain(a: list) -> None:
    _order(a)
    if a[0] or a[1]:
        raise ValueError("series must satisfy a(0) = a'(0) = 0")


def itexp(a: list) -> list:
    """Iterative exponential exp(a d/dt)(t), for a with a(0) = a'(0) = 0.

    Each application of a d/dt raises the valuation, so the exponential sum
    is finite at any truncation order.
    """
    _check_itlog_domain(a)
    return _coefficients(_itexp_form(_exp_form(a)))


def _itexp_form(A: tuple) -> tuple:
    """The exponential form of itexp(a), from a's form A."""
    N = len(A[0]) - 1
    return _kernel(([1] * (N + 1), 1), A, _monomial_form(1, N), 1)


def itlog(g: list) -> list:
    """Iterative logarithm: the unique a with a(0)=a'(0)=0 and itexp(a) = g."""
    N = _order(g)
    if g[0] or g[1] != 1:
        raise ValueError("series must satisfy g(0) = 0 and g'(0) = 1")
    A, Q = _itlog_form(*_exp_form(g))
    return [rat(A[m], Q * factorial(m)) for m in range(N + 1)]


def _itlog_form(G: list, dg: int) -> tuple:
    """(A, Q) with m! a_m = A[m] / Q for a = itlog(g), m! g_m = G[m] / dg.

    Computed order by order, filling in the terms of itexp as it goes.  With
    T_1 = a and T_k = (a d/dt) T_(k-1) / k, itexp(a) = t + sum_k T_k.  In the
    exponential form A_m = m! a_m, V_k[m] = k! m! T_k[m], the recurrence
    V_k[m] = sum_(j=k..m-1) C(m, j-1) A_(m+1-j) V_(k-1)[j] has no division
    and reads only A_2..A_(m-k+1), and A_m = m! g_m - sum_(k=2..m-1) V_k[m]/k!.
    The A_m are ints over one running denominator Q and the V_k ints over
    Q^k; when a new A_m brings a factor that Q lacks, Q grows and the stored
    values are rescaled once.  The cost is about N^3/6 integer
    multiply-adds at order N = len(G) - 1 and one gcd per order.
    """
    A = [0] * len(G)  # numerators of A_m over Q
    V = [None, A]  # V[k][m]: numerator of V_k[m] over Q^k
    Q = 1
    for m in range(2, len(G)):
        V.append([0] * len(G))
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
    return A, Q


def exp_minus_one(order: int) -> list:
    """e^t - 1, built from factorials."""
    _check_order(order)
    return [rat(0)] + [rat(1, factorial(k)) for k in range(1, order + 1)]


def koszul_numbers_itlog(N: int) -> list:
    """K_1..K_N from K_n = (n+1)! [t^(n+1)] itlog(e^t - 1) = A[n+1] / Q.

    Returns a list of length N+1 with entry 0 unused, matching the layout of
    the routes in :mod:`antibrackets.combinatorics`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    A, Q = _itlog_form([0] + [1] * (N + 1), 1)  # e^t - 1: m! g_m = 1
    return [rat(0)] + [rat(A[n + 1], Q) for n in range(1, N + 1)]


def julia_check(a: list, N: int) -> bool:
    """a(g(t)) == a(t) g'(t) with g = itexp(a), coefficient-wise to order N."""
    _check_itlog_domain(a)
    if not 1 <= N < len(a):
        raise ValueError("need 1 <= N <= the order of a")
    A = _exp_form(a[:N + 1])
    G = _itexp_form(A)
    return _same(_kernel(A, G, _monomial_form(0, N)),  # a(g)
                 _kernel(([0, 1], 1), A, G, 1))  # a * g', exact to order N


def _hurwitz_form(d: int, N: int) -> tuple:
    """(H, d!) with a_d(z) = sum_n H[n] z^n / d! to order N, where
    a_d(z) = sum_b (-1)^(d-b)/d! C(d,b) / (1 - (b+1)z).  The exponential
    form of psi(a_d), psi sending z^n to t^(n+1)/(n+1)!, is ([0, *H], d!)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    _check_order(N)
    signed = [(-1) ** (d - b) * comb(d, b) for b in range(d + 1)]
    return ([sum(c * (b + 1) ** n for b, c in enumerate(signed))
             for n in range(N + 1)], factorial(d))


def hurwitz_identity_check(d: int, N: int) -> bool:
    """psi(a_d) == (e^t - 1)^(d+1) / (d+1)! to order N: the right side is
    one composition of t^(d+1)/(d+1)! with e^t - 1, whose exponential form
    is [0, 1, ..., 1] over 1."""
    H, h = _hurwitz_form(d, N - 1)
    power = _monomial_form(d + 1, N)
    rhs = _kernel(power, ([0] + [1] * N, 1), _monomial_form(0, N))
    return _same(rhs, ([0, *H], h))


def graded_exponential_check(d: int, D: int) -> bool:
    """Compare exp(sum K_n r_n)(t_d) with the a_d coefficients on indices <= D.

    The derivation r_n sends the graded variable t_k to C(k+n+1, n+1)
    t_(k+n).  Read t_k as z^(k+1)/(k+1)!; then r_n is (z^(n+1)/(n+1)!) d/dz,
    and the exponential is one kernel call on series of order D + 1, finite
    as each r_n raises the index.  In exponential form sum K_n z^(n+1)/(n+1)!
    has entries K_n, and the image of t_d is psi(a_d) without its terms
    below index d.
    """
    if not 0 <= d <= D or D < 1:
        raise ValueError("need 0 <= d <= D and D >= 1")
    koszul = koszul_numbers_recursive(D)[1:]
    den = lcm(*(int(K.denominator) for K in koszul))
    x = [0, 0, *(int(K.numerator) * den // int(K.denominator) for K in koszul)]
    t_d = _monomial_form(d + 1, D + 1)
    image = _kernel(([1] * (D + 2), 1), (x, den), t_d, 1)
    H, h = _hurwitz_form(d, D)
    return _same(image, ([0] * (d + 1) + H[d:], h))


def stirling_derivative_check(f: list, n: int, N: int) -> bool:
    """g^(n) == sum_k {n k} f^(k)(e^t - 1) e^(kt) for g = f(e^t - 1), to order N-n.

    On exponential forms a derivative is a shift, (E, d) of a giving
    (E[1:], d) of a', so g^(n) and f^(k) are read from the forms of g and f;
    e^(kt) has the form of entries k^j over 1.  The sum is kept over the
    product of its terms' denominators.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if N <= n or len(f) - 1 < N:
        raise ValueError("truncation order too small")
    F, df = _exp_form(f[:N + 1])
    e = [0] + [1] * N  # e^t - 1, over 1
    G, dg = _kernel((F, df), (e, 1), _monomial_form(0, N))
    M = N - n  # the order of both sides
    R, r = [0] * (M + 1), 1
    for k in range(1, n + 1):
        fk = _kernel((F[k:k + M + 1], df), (e[:M + 1], 1),
                     _monomial_form(0, M))  # f^(k)(e^t - 1)
        P, p = _kernel(([0, 1], 1), fk, ([k ** j for j in range(M + 1)], 1))
        R, r = [u * p + stirling2(n, k) * v * r for u, v in zip(R, P)], r * p
    return _same((G[n:], dg), (R, r))
