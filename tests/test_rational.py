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

# Rationals that the series suite makes at (2,2,4), N = 5, seed 1, on
# Python 3.11, in a fresh process: the Stirling derivative entries 1,140
# plus 17 for the log(1+t) they share, the psi/Hurwitz entries 441 (63
# each, one composition per entry), the graded-variable checks 280 and the
# Julia equation 105.  Each series operation returns its coefficients as
# rationals; the Stirling entries also sum Fractions term by term (2,648
# when the psi/Hurwitz entries built (e^t - 1)^(d+1) product by product,
# 6,373 when the graded-variable checks summed term by term too, 63,615
# when every series operation did)
SERIES_RATIONALS = 1983

fraction_backend_only = pytest.mark.skipif(
    Rational is not Fraction,
    reason="counts through the constructor of fractions.Fraction")


def _rationals_made(monkeypatch, N, suites):
    """{suite: rationals constructed by its registry entries} at (2,2,4),
    seed 1; every entry must pass."""
    made = [0]
    new = Rational.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Rational, "__new__", staticmethod(counted))
    sig = Signature(even=2, odd=2, degree_bound=4)
    counts = {}
    for suite in suites:
        made[0] = 0
        for _, label, thunk in registry(sig, N, 1, [suite]):
            assert thunk() is None, (suite, label)
        counts[suite] = made[0]
    return counts


@fraction_backend_only
def test_commutative_suites_make_no_rationals(monkeypatch):
    counts = _rationals_made(monkeypatch, 4, ("jacobi", "inversion", "linf",
                                              "order", "universal"))
    assert counts["jacobi"] == 0, counts
    assert counts["inversion"] == 0, counts
    assert counts["linf"] == 0, counts
    assert counts["order"] == 0, counts
    assert counts["universal"] <= UNIVERSAL_RATIONALS, counts


@fraction_backend_only
def test_series_suite_rationals_stay_within_allowance(monkeypatch):
    counts = _rationals_made(monkeypatch, 5, ("series",))
    assert counts["series"] <= SERIES_RATIONALS, counts
