from __future__ import annotations

from hypothesis import given, strategies as st

from antibrackets.rational import Rational, format_rational, rat


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

