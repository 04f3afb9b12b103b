from __future__ import annotations

import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from antibrackets.combinatorics import (
    koszul_numbers_chain,
    koszul_numbers_recursive,
    stirling2,
    stirling2_closed_form,
)
from antibrackets.rational import rat

KNOWN_K = {
    1: rat(1),
    2: rat(-1, 2),
    3: rat(1, 2),
    4: rat(-2, 3),
    5: rat(11, 12),
    6: rat(-3, 4),
    7: rat(-11, 6),
    8: rat(29, 4),
    9: rat(493, 12),
    10: rat(-2711, 6),
    11: rat(-12406, 15),
    12: rat(2636317, 60),
}


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=25))
def test_stirling_triangle_equals_closed_form(n, i):
    if i > n:
        return
    assert stirling2(n, i) == stirling2_closed_form(n, i)


@given(st.integers(min_value=3, max_value=25), st.integers(min_value=2, max_value=24))
def test_stirling_recurrence(n, i):
    if i > n - 1:
        return
    assert stirling2(n, i) == i * stirling2(n - 1, i) + stirling2(n - 1, i - 1)


def test_stirling_boundaries():
    assert stirling2(1, 1) == 1
    for n in range(1, 8):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1
    with pytest.raises(ValueError):
        stirling2(3, 0)
    with pytest.raises(ValueError):
        stirling2(3, 4)


def test_koszul_recursive_known_values():
    ks = koszul_numbers_recursive(12)
    for n, value in KNOWN_K.items():
        assert ks[n] == value


def test_koszul_chain_agrees_with_recursive():
    assert koszul_numbers_chain(14) == koszul_numbers_recursive(14)


def _koszul_numbers_chain_enumerated(N):
    """Reference: the chain sum with every chain enumerated, 2^(n-1) of them."""
    values = [rat(0)] * (N + 1)
    for n in range(1, N + 1):
        total = rat(0)
        interior = range(2, n + 1)
        for size in range(0, n):
            for chosen in itertools.combinations(interior, size):
                chain = list(chosen) + [n + 1]
                k = len(chain)
                prod = 1
                for lo, hi in zip(chain, chain[1:]):
                    prod *= stirling2(hi, lo)
                total += rat((-1) ** (k + 1) * prod, k)
        values[n] = total
    return values


def test_koszul_chain_programme_matches_enumeration():
    assert koszul_numbers_chain(12) == _koszul_numbers_chain_enumerated(12)


def test_koszul_integer_normalization():
    ks = koszul_numbers_recursive(16)
    scaled = [factorial(n) * ks[n] for n in range(1, 17)]
    assert scaled[6] == -9240
    assert scaled[15] == 41404329870413936025600
    assert all(value == int(value) for value in scaled)
