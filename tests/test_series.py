from __future__ import annotations

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets.combinatorics import koszul_numbers_recursive
from antibrackets.rational import rat
from antibrackets.series import (
    TruncatedSeries,
    graded_exponential_check,
    exp_minus_one,
    itexp,
    itlog,
    julia_check,
    koszul_numbers_itlog,
    log_one_plus,
    psi_of_series,
    series_compose,
    series_mul,
    hurwitz_series,
    stirling_derivative_check,
)

small_rationals = st.builds(
    rat, st.integers(-6, 6), st.integers(1, 4)
)


def series_with_valuation_two(order=10):
    return st.lists(small_rationals, min_size=0, max_size=order - 1).map(
        lambda tail: TruncatedSeries(order, [rat(0), rat(0)] + tail)
    )


def itlog_rebuilding_itexp(g):
    """Reference: match itexp(a), rebuilt at order m, against g at each m."""
    N = g.order
    acoef = [rat(0)] * (N + 1)
    for m in range(2, N + 1):
        e = itexp(TruncatedSeries(m, acoef[: m + 1]))
        acoef[m] = g.coeffs[m] - e.coeffs[m]
    return TruncatedSeries(N, acoef)


def test_mul_matches_known_product():
    t = TruncatedSeries.variable(5)
    one_plus_t = TruncatedSeries(5, [1, 1])
    sq = series_mul(one_plus_t, one_plus_t)
    assert sq == TruncatedSeries(5, [1, 2, 1])
    assert series_mul(t, t) == TruncatedSeries(5, [0, 0, 1])


def test_compose_log_exp_is_identity():
    order = 12
    assert series_compose(log_one_plus(order), exp_minus_one(order)) == (
        TruncatedSeries.variable(order)
    )


def test_compose_requires_zero_constant_term():
    f = TruncatedSeries(4, [1, 1])
    with pytest.raises(ValueError):
        series_compose(f, f)


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        TruncatedSeries.variable(4) + TruncatedSeries.variable(5)


def test_derivative_lowers_order():
    f = TruncatedSeries(4, [1, 2, 3, 4, 5])
    assert f.derivative() == TruncatedSeries(3, [2, 6, 12, 20])


@settings(max_examples=40, deadline=None)
@given(series_with_valuation_two())
def test_itlog_inverts_itexp(a):
    g = itexp(a)
    assert itlog(g) == a


@settings(max_examples=40, deadline=None)
@given(series_with_valuation_two())
def test_itlog_matches_rebuilding_reference(a):
    g = TruncatedSeries.variable(a.order) + a
    assert itlog(g) == itlog_rebuilding_itexp(g)


def test_itlog_of_exp_minus_one_matches_rebuilding_reference():
    g = exp_minus_one(25)
    assert itlog(g) == itlog_rebuilding_itexp(g)


def test_itlog_refuses_series_outside_its_domain():
    for coeffs in ([1, 1], [0, 2], [0, 0, 1]):
        with pytest.raises(ValueError, match="g'\\(0\\) = 1"):
            itlog(TruncatedSeries(4, coeffs))


@settings(max_examples=40, deadline=None)
@given(series_with_valuation_two())
def test_julia_equation_for_any_generator(a):
    assert julia_check(a, a.order)


def test_koszul_itlog_route_matches_recursion():
    assert koszul_numbers_itlog(14) == koszul_numbers_recursive(14)
    assert koszul_numbers_itlog(60) == koszul_numbers_recursive(60)


def test_julia_for_exp_minus_one_generator():
    a = itlog(exp_minus_one(20))
    assert julia_check(a, 20)


def test_hurwitz_series_low_orders():
    # a_0(z) = 1/(1-z); a_1(z) = 1/(1-2z) - 1/(1-z)
    assert hurwitz_series(0, 6).coeffs == tuple(rat(1) for _ in range(7))
    assert hurwitz_series(1, 6).coeffs == tuple(
        rat(2**n - 1) for n in range(7)
    )


def test_psi_of_hurwitz_is_power_of_exp_minus_one():
    for d in range(5):
        lhs = psi_of_series(hurwitz_series(d, 11))
        e = exp_minus_one(12)
        power = TruncatedSeries(12, [1])
        for _ in range(d + 1):
            power = series_mul(power, e)
        assert lhs == power.scale(rat(1, factorial(d + 1)))


def test_graded_variable_exponential_check():
    for d in range(4):
        assert graded_exponential_check(d, 9)


def test_stirling_derivative_identity():
    f = log_one_plus(14)
    for n in range(1, 5):
        assert stirling_derivative_check(f, n, 14)


def test_stirling_derivative_identity_other_series():
    f = TruncatedSeries(14, [0, 1, 0, rat(1, 3), 0, rat(-2, 7)])
    for n in range(1, 4):
        assert stirling_derivative_check(f, n, 14)
