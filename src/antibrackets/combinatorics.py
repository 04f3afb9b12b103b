"""Integer combinatorics and the Koszul number sequence.

Koszul numbers K_n are the rationals with itlog(e^t - 1) = sum K_n t^(n+1)/(n+1)!;
n! K_n is the integer sequence OEIS A180609.  Two independent routes are
implemented here: the Stirling-triangle recursion and the signed sum over
chains of Stirling numbers.  A third route via the iterative logarithm lives
in :mod:`antibrackets.series`.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm

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
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    values = [rat(0)] * (N + 1)
    values[1] = rat(1)
    for n in range(2, N + 1):
        acc = sum(stirling2(n + 1, i) * values[i] for i in range(1, n))
        values[n] = rat(-2, (n + 2) * (n - 1)) * acc
    return values


def koszul_numbers_chain(N: int) -> list:
    """K_1..K_N by the signed chain sum over 1 < n_1 < ... < n_k = n+1.

    Each chain contributes (-1)^(k+1)/k times the product of consecutive
    Stirling numbers {n_2 n_1} ... {n_k n_(k-1)}; the empty-interior chain
    (k = 1) contributes 1.  Independent of the triangle recursion route.
    The chains are summed in O(N^3): W[j, k], the sum over the chains of
    length k ending at n_k = j, is sum_(i<j) W[i, k-1] {j i}.  The terms of
    K_(j-1) are summed as ints over L = lcm(1..j-1), with one division.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    W = {}
    values = [rat(0)] * (N + 1)
    for j in range(2, N + 2):
        L = lcm(*range(1, j))
        W[j, 1] = 1
        for k in range(2, j):
            W[j, k] = sum(W[i, k - 1] * stirling2(j, i) for i in range(k, j))
        total = sum((-1) ** (k + 1) * W[j, k] * (L // k) for k in range(1, j))
        values[j - 1] = rat(total, L)
    return values
