"""Integer combinatorics and the Koszul number sequence.

Koszul numbers K_n are the rationals with itlog(e^t - 1) = sum K_n t^(n+1)/(n+1)!;
n! K_n is the integer sequence OEIS A180609.  Two independent routes are
implemented here: the Stirling-triangle recursion and the signed sum over
chains of Stirling numbers.  A third route via the iterative logarithm lives
in :mod:`antibrackets.series`.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul

from .rational import rat

__all__ = [
    "stirling2",
    "koszul_numbers_recursive",
    "koszul_numbers_chain",
    "mu_bracket_factor",
]


@lru_cache(maxsize=None)
def stirling2(n: int, i: int) -> int:
    """Stirling number of the second kind {n i} by the triangle recursion."""
    if i < 1 or i > n:
        raise ValueError(f"stirling2 requires 1 <= i <= n, got ({n}, {i})")
    if i == 1 or i == n:
        return 1
    return stirling2(n - 1, i - 1) + i * stirling2(n - 1, i)


def mu_bracket_factor(n: int, m: int):
    """(n-m)(n+m+1)!/((n+1)!(m+1)!), the structure constant of
    [mu_n, mu_m] = factor mu_(n+m) and of the coderivations d_n it mirrors."""
    return rat((n - m) * factorial(n + m + 1), factorial(n + 1) * factorial(m + 1))


def koszul_numbers_recursive(N: int) -> list:
    """K_1..K_N by the recursion K_n = -2/((n+2)(n-1)) sum_i {n+1 i} K_i.

    Returns a list of length N+1 with entry 0 unused (values[n] = K_n).
    The K_i are ints P_i over one running denominator Q, the lcm of their
    reduced denominators: K_n = s / ((n+2)(n-1) Q) with s = -2 sum_i
    {n+1 i} P_i, and when its reduced denominator brings a factor that Q
    lacks, Q grows and the stored numerators are rescaled once.  The Stirling
    rows come from the triangle recursion, one row from the one before.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    P = [0, 1]  # numerators of K_0 (unused), K_1, ... over Q
    Q = 1
    row = [0, 1, 1]  # {n+1 i} for i = 0..n+1, here n = 1
    for n in range(2, N + 1):
        row = [0, *(i * row[i] + row[i - 1] for i in range(1, n + 1)), 1]
        s = -2 * sum(map(mul, row[1:n], P[1:]))
        den = (n + 2) * (n - 1) * Q
        g = gcd(s, den)
        den //= g
        grow = den // gcd(den, Q)
        if grow > 1:
            P = [v * grow for v in P]
            Q *= grow
        P.append(s // g * (Q // den))
    return [rat(0), *(rat(v, Q) for v in P[1:])]


def koszul_numbers_chain(N: int) -> list:
    """K_1..K_N by the signed chain sum over 1 < n_1 < ... < n_k = n+1.

    Each chain contributes (-1)^(k+1)/k times the product of consecutive
    Stirling numbers {n_2 n_1} ... {n_k n_(k-1)}; the empty-interior chain
    (k = 1) contributes 1.  Independent of the triangle recursion route.
    The chains are summed in O(N^3): W[k][j], the sum over the chains of
    length k ending at n_k = j, is sum_(k<=i<j) W[k-1][i] {j i}, one int
    list per k read against the row {j .} of :func:`stirling2`.  The terms
    of K_(j-1) are summed as ints over L = lcm(1..j-1), with one division.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    W = [None, [0, 0]]  # W[k][j], 0 for j <= k as chains start at n_1 >= 2
    values = [rat(0)] * (N + 1)
    for j in range(2, N + 2):
        L = lcm(*range(1, j))
        row = [0, *(stirling2(j, i) for i in range(1, j))]  # {j i}, i < j
        W[1].append(1)
        W.append([0] * (j + 1))  # W[j]: its first chain ends at j + 1
        for k in range(2, j):
            W[k].append(sum(map(mul, W[k - 1][k:j], row[k:j])))
        total = sum((-1) ** (k + 1) * W[k][j] * (L // k) for k in range(1, j))
        values[j - 1] = rat(total, L)
    return values
