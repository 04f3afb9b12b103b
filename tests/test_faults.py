"""The fault matrix: which identity suites catch a fault in a kernel.

Each fault is applied with ``monkeypatch`` before a fresh signature builds
any table, and the test asserts the set of suites with a failing entry in
the registry at (2,2,4), N = 4, seed 42.  A suite that stops catching a
fault, or starts failing on the clean kernels, fails the test.  A failing
check stops at its first mismatch, so a faulted registry costs less than a
clean one.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest

from antibrackets import brackets, multilinear
from antibrackets.checks import registry
from antibrackets.superalgebra import Signature

SUITES = ("jacobi", "universal", "inversion", "linf", "order")


def _flip_first_block_sign(monkeypatch):
    """The sign of the block {first argument} flipped in every
    :func:`~antibrackets.multilinear._shuffle_signs` table of three or more
    parities, in both modules that read the tables; the inversion check's
    cache of block tables starts empty, so it holds only flipped ones."""
    original = multilinear._shuffle_signs

    def flipped(pattern):
        signs, odd = original(pattern)
        if len(pattern) >= 3:
            signs = [signs[0], -signs[1], *signs[2:]]
        return signs, odd

    monkeypatch.setattr(multilinear, "_shuffle_signs", flipped)
    monkeypatch.setattr(brackets, "_shuffle_signs", flipped)
    monkeypatch.setattr(brackets, "_block_signs",
                        lru_cache(brackets._block_signs.__wrapped__))


def _flip_odd_inversion_sign(monkeypatch):
    """:meth:`Signature.mul_monomials` returns +1 for a product whose odd
    letters cross an odd number of times, so every row of degree <= 1, and
    every row composed from one, carries the wrong sign there."""
    original = Signature.mul_monomials

    def flipped(self, a, b):
        s, m = original(self, a, b)
        return (-s if s < 0 else s, m)

    monkeypatch.setattr(Signature, "mul_monomials", flipped)


def _failing_entries(sig):
    """{suite: number of failing registry entries} at N = 4, seed 42."""
    return dict(Counter(suite for suite, _, thunk in registry(sig, 4, 42, SUITES)
                        if thunk() is not None))


@pytest.mark.parametrize("fault, caught_by", [
    (None, set()),
    # 3 / 18 / 0 / 0 / 1 failing entries (jacobi / universal / inversion /
    # linf / order)
    (_flip_first_block_sign, {"jacobi", "universal", "order"}),
    # 6 / 18 / 0 / 1 / 2
    (_flip_odd_inversion_sign, {"jacobi", "universal", "linf", "order"}),
], ids=["clean", "shuffle-sign", "odd-inversion-sign"])
def test_fault_is_caught_by_the_named_suites(monkeypatch, fault, caught_by):
    if fault is not None:
        fault(monkeypatch)
    assert set(_failing_entries(Signature(even=2, odd=2, degree_bound=4))) == caught_by
