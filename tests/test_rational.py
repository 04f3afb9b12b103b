from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from antibrackets.checks import registry
from antibrackets.rational import Rational, format_rational, rat
from antibrackets.superalgebra import Signature


def test_format_integer_and_fraction():
    assert format_rational(rat(3)) == "3"
    assert format_rational(rat(-1, 2)) == "-1/2"
    assert format_rational(rat(4, 2)) == "2"
    assert format_rational(7) == "7"


def test_denominator_normalized_positive():
    assert rat(1, -2) == rat(-1, 2)
    assert format_rational(rat(1, -2)) == "-1/2"


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_parse_roundtrip(p, q):
    value = rat(p, q)
    assert Rational(format_rational(value)) == value


def test_exact_arithmetic():
    third = rat(1, 3)
    assert third + third + third == 1
    assert rat(1, 10) + rat(2, 10) == rat(3, 10)


# Rationals that the universal suite makes at (2,2,4), N = 4, seed 1, in a
# fresh process (its coefficients are rational); every other commutative
# suite below runs on ints only
UNIVERSAL_RATIONALS = 115


@pytest.mark.skipif(Rational is not Fraction,
                    reason="counts through the constructor of fractions.Fraction")
def test_commutative_suites_make_no_rationals(monkeypatch):
    made = [0]
    new = Rational.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Rational, "__new__", staticmethod(counted))
    sig = Signature(even=2, odd=2, degree_bound=4)
    counts = {}
    for suite in ("jacobi", "inversion", "linf", "order", "universal"):
        made[0] = 0
        for _, label, thunk in registry(sig, 4, 1, [suite]):
            assert thunk() is None, (suite, label)
        counts[suite] = made[0]
    assert counts["jacobi"] == 0, counts
    assert counts["inversion"] == 0, counts
    assert counts["linf"] == 0, counts
    assert counts["order"] == 0, counts
    assert counts["universal"] <= UNIVERSAL_RATIONALS, counts
