"""Truncated formal power series over exact rationals.

A series carries an explicit truncation order N and exactly N+1 coefficients;
operations never silently mix orders.  On top of the ring structure this
module implements the iterative exponential exp(a d/dt)(t) and logarithm,
and the identity checks built from them (Julia's equation, the
Hurwitz-number series a_d(z), the nilpotent-exponential check on the graded
variable space, and the Stirling formula for derivatives of f(e^t - 1)).
"""

from __future__ import annotations

from math import comb, factorial, gcd
from operator import mul

from .combinatorics import koszul_numbers_recursive, stirling2
from .rational import Rational, rat

__all__ = [
    "TruncatedSeries",
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


class TruncatedSeries:
    """Coefficients of a formal power series up to a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("too many coefficients for the stated order")
        coeffs += [rat(0)] * (order + 1 - len(coeffs))
        self.order = order
        # From a list: tuple() of a generator resizes, and resized tuples
        # pile up in the interpreter's per-length free lists.
        self.coeffs = tuple([
            c if isinstance(c, Rational) else rat(c) for c in coeffs
        ])

    @classmethod
    def variable(cls, order: int) -> "TruncatedSeries":
        """The series t."""
        return cls(order, [0, 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.order, [c * a for a in self.coeffs])

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative, accurate (and truncated) to order N-1."""
        return TruncatedSeries(
            self.order - 1,
            [k * self.coeffs[k] for k in range(1, self.order + 1)],
        )

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot raise the truncation order")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.order}, {list(self.coeffs)})"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    a._check_order(b)
    N = a.order
    out = [rat(0)] * (N + 1)
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j in range(N + 1 - i):
            bj = b.coeffs[j]
            if bj:
                out[i + j] += ai * bj
    return TruncatedSeries(N, out)


def series_compose(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g(t)) by Horner's scheme; g must have zero constant term."""
    f._check_order(g)
    if g.coeffs[0]:
        raise ValueError("composition requires g(0) = 0")
    N = f.order
    result = TruncatedSeries(N, [f.coeffs[N]])
    for k in range(N - 1, -1, -1):
        result = series_mul(result, g)
        result = TruncatedSeries(
            N, [result.coeffs[0] + f.coeffs[k], *result.coeffs[1:]]
        )
    return result


def _check_itlog_domain(a: TruncatedSeries) -> None:
    if a.coeffs[0] or a.coeffs[1]:
        raise ValueError("series must satisfy a(0) = a'(0) = 0")


def _derivation_apply(a: TruncatedSeries, f: TruncatedSeries) -> TruncatedSeries:
    """a * f' exactly to the common order (valid because a has valuation >= 2)."""
    N = a.order
    out = [rat(0)] * (N + 1)
    for i in range(2, N + 1):
        ai = a.coeffs[i]
        if not ai:
            continue
        for j in range(1, N + 2 - i):
            fj = f.coeffs[j]
            if fj:
                out[i + j - 1] += ai * j * fj
    return TruncatedSeries(N, out)


def itexp(a: TruncatedSeries) -> TruncatedSeries:
    """Iterative exponential exp(a d/dt)(t), for a with a(0) = a'(0) = 0.

    Each application of a d/dt raises the valuation, so the exponential sum
    is finite at any truncation order.
    """
    _check_itlog_domain(a)
    result = term = TruncatedSeries.variable(a.order)
    k = 1
    while True:
        term = _derivation_apply(a, term).scale(rat(1, k))
        if term.is_zero():
            return result
        result = result + term
        k += 1


def itlog(g: TruncatedSeries) -> TruncatedSeries:
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
    if g.coeffs[0] or g.coeffs[1] != 1:
        raise ValueError("series must satisfy g(0) = 0 and g'(0) = 1")
    N = g.order
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
        A_m = factorial(m) * g.coeffs[m] - rat(rest, factorial(m - 1) * Q ** (m - 1))
        num, den = int(A_m.numerator), int(A_m.denominator)
        grow = den // gcd(den, Q)
        if grow > 1:
            factor = 1
            for k in range(1, m):
                factor *= grow
                V[k][:m + 1] = [v * factor for v in V[k][:m + 1]]
            Q *= grow
        A[m] = num * (Q // den)
    return TruncatedSeries(
        N, [rat(A[m], Q * factorial(m)) for m in range(N + 1)]
    )


def exp_minus_one(order: int) -> TruncatedSeries:
    """e^t - 1, built from factorials."""
    return TruncatedSeries(
        order, [0] + [rat(1, factorial(k)) for k in range(1, order + 1)]
    )


def log_one_plus(order: int) -> TruncatedSeries:
    """log(1 + t)."""
    return TruncatedSeries(
        order, [0] + [rat((-1) ** (k + 1), k) for k in range(1, order + 1)]
    )


def koszul_numbers_itlog(N: int) -> list:
    """K_1..K_N from K_n = (n+1)! [t^(n+1)] itlog(e^t - 1).

    Returns a list of length N+1 with entry 0 unused, matching the layout of
    the routes in :mod:`antibrackets.combinatorics`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = itlog(exp_minus_one(N + 1))
    return [rat(0)] + [factorial(n + 1) * a.coeffs[n + 1] for n in range(1, N + 1)]


def julia_check(a: TruncatedSeries, N: int) -> bool:
    """a(g(t)) == a(t) g'(t) with g = itexp(a), coefficient-wise to order N."""
    _check_itlog_domain(a)
    a = a.truncate(N)
    g = itexp(a)
    lhs = series_compose(a, g)
    rhs = _derivation_apply(a, g)  # a * g', exact to order N
    return lhs == rhs


def hurwitz_series(d: int, N: int) -> TruncatedSeries:
    """a_d(z) = sum_b (-1)^(d-b)/d! C(d,b) / (1 - (b+1)z), truncated at order N."""
    if d < 0:
        raise ValueError("d must be >= 0")
    coeffs = [
        sum(
            rat((-1) ** (d - b) * comb(d, b) * (b + 1) ** n, factorial(d))
            for b in range(d + 1)
        )
        for n in range(N + 1)
    ]
    return TruncatedSeries(N, coeffs)


def psi_of_series(a: TruncatedSeries) -> TruncatedSeries:
    """The map z^n -> t^(n+1)/(n+1)! applied coefficient-wise."""
    out = [rat(0)] + [
        c * rat(1, factorial(n + 1)) for n, c in enumerate(a.coeffs)
    ]
    return TruncatedSeries(a.order + 1, out)


def graded_exponential_check(d: int, D: int) -> bool:
    """Compare exp(sum K_n r_n)(t_d) with the a_d coefficients on indices <= D.

    The graded variables t_0..t_D are modelled as a coefficient vector; the
    derivation r_n sends t_k to C(k+n+1, n+1) t_(k+n), raising the index, so
    the exponential is nilpotent on the truncation.
    """
    if not 0 <= d <= D:
        raise ValueError("need 0 <= d <= D")
    koszul = koszul_numbers_recursive(max(D, 1))

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
    expected = hurwitz_series(d, D).coeffs
    return all(
        result[k] == (expected[k] if k >= d else rat(0)) for k in range(D + 1)
    )


def stirling_derivative_check(f: TruncatedSeries, n: int, N: int) -> bool:
    """g^(n) == sum_k {n k} f^(k)(e^t - 1) e^(kt) for g = f(e^t - 1), to order N-n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if N < n or f.order < N:
        raise ValueError("truncation order too small")
    f = f.truncate(N)
    e = exp_minus_one(N)
    g = series_compose(f, e)
    lhs = g
    for _ in range(n):
        lhs = lhs.derivative()
    rhs = TruncatedSeries(N - n)
    fk = f
    for k in range(1, n + 1):
        fk = fk.derivative()  # f^(k), order N-k
        s = stirling2(n, k)
        if not s:
            continue
        comp = series_compose(fk.truncate(N - n), e.truncate(N - n))
        ekt = TruncatedSeries(
            N - n, [rat(k**j, factorial(j)) for j in range(N - n + 1)]
        )
        rhs = rhs + series_mul(comp, ekt).scale(s)
    return lhs == rhs
