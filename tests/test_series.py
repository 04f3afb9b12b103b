from __future__ import annotations

from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import series
from antibrackets.combinatorics import (
    koszul_numbers_chain,
    koszul_numbers_recursive,
    stirling2,
)
from antibrackets.rational import Rational, rat
from antibrackets.series import (
    _exp_form,
    _hurwitz_form,
    _itlog_form,
    _kernel,
    graded_exponential_check,
    exp_minus_one,
    hurwitz_identity_check,
    julia_check,
    koszul_numbers_itlog,
    stirling_derivative_check,
)

small_rationals = st.builds(
    rat, st.integers(-6, 6), st.integers(1, 4)
)


# The reference series log(1 + t), which no package function builds.
def log_one_plus(order: int) -> list:
    """log(1 + t) to order ``order``."""
    return [rat(0)] + [rat((-1) ** (k + 1), k) for k in range(1, order + 1)]


def series_with_valuation_two(order=10):
    return st.lists(small_rationals, min_size=0, max_size=order - 1).map(
        lambda tail: [rat(0), rat(0), *tail] + [rat(0)] * (order - 1 - len(tail))
    )


def coefficients(form):
    """The series of the exponential form (E, d): one division per entry."""
    E, d = form
    return [rat(e, factorial(m) * d) for m, e in enumerate(E)]


def kernel_itexp(a):
    """exp(a d/dt)(t) through the kernel: w = e^t and L(v) = a v', applied
    to t; a must have valuation >= 2."""
    N = len(a) - 1
    t = [0, 1] + [0] * (N - 1)
    return coefficients(_kernel(([1] * (N + 1), 1), _exp_form(a), (t, 1), 1))


def form_itlog(g):
    """itlog(g) from the package's integer form: one division per entry."""
    A, Q = _itlog_form(*_exp_form(g))
    return [rat(e, factorial(m) * Q) for m, e in enumerate(A)]


def itlog_rebuilding_itexp(g):
    """Reference: match itexp(a), rebuilt at order m, against g at each m."""
    N = len(g) - 1
    acoef = [rat(0)] * (N + 1)
    for m in range(2, N + 1):
        acoef[m] = g[m] - itexp_fraction(acoef[: m + 1])[m]
    return acoef


def itlog_fraction(g):
    """Reference: the order-by-order recurrence on rationals, with
    T_k[m] = (1/k) sum_(j=k..m-1) a_(m+1-j) j T_(k-1)[j] and
    a_m = g_m - sum_(k=2..m-1) T_k[m]."""
    N = len(g) - 1
    a = [rat(0)] * (N + 1)
    terms = [None, a]  # terms[k][m] = T_k[m]
    for m in range(2, N + 1):
        terms.append([rat(0)] * (N + 1))
        rest = rat(0)
        for k in range(2, m):
            lower = terms[k - 1]
            tkm = sum(a[m + 1 - j] * j * lower[j] for j in range(k, m)) / k
            terms[k][m] = tkm
            rest += tkm
        a[m] = g[m] - rest
    return a


def kernel_mul(a, b, shift=0):
    """a b through the kernel, w = t and L(v) = a v, so w(L) b = a b; or
    a b' with shift 1, exact when a has valuation >= 2."""
    return coefficients(_kernel(([0, 1], 1), _exp_form(a), _exp_form(b), shift))


def kernel_compose(f, g):
    """f(g) through the kernel: w = f and L(v) = g v, applied to 1."""
    one = [1] + [0] * (len(f) - 1)
    return coefficients(_kernel(_exp_form(f), _exp_form(g), (one, 1)))


def series_mul_fraction(a, b):
    """Reference: the Cauchy product summed term by term on rationals."""
    N = len(a) - 1
    out = [rat(0)] * (N + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(N + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def series_compose_fraction(f, g):
    """Reference: f(g(t)) by Horner's scheme on rationals."""
    N = len(f) - 1
    result = [f[N]] + [rat(0)] * N
    for k in range(N - 1, -1, -1):
        result = series_mul_fraction(result, g)
        result[0] += f[k]
    return result


def derivation_apply_fraction(a, f):
    """Reference: a * f' on rationals, for a of valuation >= 2."""
    N = len(a) - 1
    out = [rat(0)] * (N + 1)
    for i in range(2, N + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(1, N + 2 - i):
            fj = f[j]
            if fj:
                out[i + j - 1] += ai * j * fj
    return out


def itexp_fraction(a):
    """Reference: t + sum_k (a d/dt)^k t / k!, each term on rationals."""
    result = term = [0, 1] + [0] * (len(a) - 2)
    k = 1
    while True:
        term = [c * rat(1, k) for c in derivation_apply_fraction(a, term)]
        if not any(term):
            return result
        result = [r + c for r, c in zip(result, term)]
        k += 1


# Ints and rationals mixed, and series of every order from 1, for the
# references above
mixed_coefficients = st.one_of(st.integers(-6, 6), small_rationals,
                               st.builds(rat, st.integers(-50, 50),
                                         st.integers(1, 40)))


def series_tuples(*valuations, max_order=9):
    """Series of one order 1..max_order, one per entry of ``valuations``,
    series i with its first ``valuations[i]`` coefficients zero."""
    def of_order(order):
        return st.tuples(*(
            st.lists(mixed_coefficients, min_size=order + 1 - v,
                     max_size=order + 1 - v).map(lambda tail, v=v: [0] * v + tail)
            for v in valuations))

    return st.integers(1, max_order).flatmap(of_order)


@settings(max_examples=60, deadline=None)
@given(series_tuples(0, 0))
def test_mul_matches_fraction_reference(pair):
    a, b = pair
    assert kernel_mul(a, b) == series_mul_fraction(a, b)


@settings(max_examples=60, deadline=None)
@given(series_tuples(0, 1))
def test_compose_matches_fraction_reference(pair):
    f, g = pair
    assert kernel_compose(f, g) == series_compose_fraction(f, g)


@settings(max_examples=60, deadline=None)
@given(series_tuples(2, 0))
def test_derivation_apply_matches_fraction_reference(pair):
    a, f = pair
    assert kernel_mul(a, f, 1) == derivation_apply_fraction(a, f)


@settings(max_examples=60, deadline=None)
@given(series_tuples(2))
def test_itexp_matches_fraction_reference(single):
    (a,) = single
    assert kernel_itexp(a) == itexp_fraction(a)


def test_references_cover_orders_one_and_two():
    for a in ([0, 0], [0, 0, rat(-3, 4)], [0, 0, 5]):
        assert kernel_itexp(a) == itexp_fraction(a)
        f = [rat(2, 3), -1, *a[2:]]
        assert kernel_mul(f, a) == series_mul_fraction(f, a)
        assert kernel_mul(a, f, 1) == derivation_apply_fraction(a, f)
        g = [0, rat(1, 2), *a[2:]]
        assert kernel_compose(f, g) == series_compose_fraction(f, g)


def test_kernel_powers_of_exp_minus_one_are_stirling_numbers():
    # w = t^k, whose exponential form is k! at entry k, so the kernel
    # returns the form of (e^t - 1)^k, whose entries are k! S(m, k)
    N = 20
    e, one = _exp_form(exp_minus_one(N)), ([1] + [0] * N, 1)
    assert e == ([0] + [1] * N, 1)
    for k in range(1, N + 1):
        w = [0] * (N + 1)
        w[k] = factorial(k)
        E, d = _kernel((w, 1), e, one)
        assert E == [0] * k + [d * factorial(k) * stirling2(m, k)
                               for m in range(k, N + 1)]


@settings(max_examples=60, deadline=None)
@given(series_tuples(0, 2, 0), st.sampled_from([0, 1]))
def test_kernel_leaves_the_forms_it_is_given_unchanged(triple, shift):
    # x has valuation 2, so that x v' is exact for shift 1 too
    forms = [_exp_form(a) for a in triple]
    before = [(list(E), d) for E, d in forms]
    _kernel(*forms, shift)
    assert forms == before


@settings(max_examples=60, deadline=None)
@given(series_tuples(0))
def test_exp_form_and_one_division_give_back_the_series(single):
    (a,) = single
    E, d = _exp_form(a)
    assert all(type(e) is int for e in E) and type(d) is int and d >= 1
    assert gcd(d, *E) == 1  # d is the least
    assert coefficients((E, d)) == a


# Denominators up to 12, none of them 1, so that _itlog_form's running
# denominator grows and its stored values are rescaled.
non_unit_rationals = st.builds(rat, st.integers(-6, 6), st.integers(2, 12))


def test_mul_matches_known_product():
    t = [0, 1, 0, 0, 0, 0]
    one_plus_t = [1, 1, 0, 0, 0, 0]
    assert kernel_mul(one_plus_t, one_plus_t) == [1, 2, 1, 0, 0, 0]
    assert kernel_mul(t, t) == [0, 0, 1, 0, 0, 0]


def test_compose_log_exp_is_identity():
    order = 12
    assert kernel_compose(log_one_plus(order), exp_minus_one(order)) == (
        [0, 1] + [0] * (order - 1)
    )


@settings(max_examples=40, deadline=None)
@given(series_with_valuation_two())
def test_itlog_inverts_itexp(a):
    g = kernel_itexp(a)
    assert form_itlog(g) == a


@settings(max_examples=40, deadline=None)
@given(series_with_valuation_two())
def test_itlog_matches_rebuilding_reference(a):
    g = [a[0], a[1] + 1, *a[2:]]
    assert form_itlog(g) == itlog_rebuilding_itexp(g)


def test_itlog_of_exp_minus_one_matches_rebuilding_reference():
    g = exp_minus_one(25)
    assert form_itlog(g) == itlog_rebuilding_itexp(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14).flatmap(lambda order: st.lists(
    non_unit_rationals, min_size=order - 1, max_size=order - 1).map(
        lambda tail: [0, 1, *tail])))
def test_itlog_matches_fraction_reference(g):
    assert form_itlog(g) == itlog_fraction(g)


def test_itlog_of_exp_minus_one_matches_fraction_reference():
    g = exp_minus_one(41)
    assert form_itlog(g) == itlog_fraction(g)


def test_itlog_refuses_series_outside_its_domain():
    # julia_check is the one function that takes a g and logs it
    for coeffs in ([1, 1], [0, 2], [0, 0, 1]):
        with pytest.raises(ValueError, match="g'\\(0\\) = 1"):
            julia_check(coeffs + [0] * (5 - len(coeffs)), 4)
    for g, N in (([0, 1, 0], 0), ([0, 1, 0], 3), ([], 1), ([0], 1)):
        with pytest.raises(ValueError, match="order of g"):
            julia_check(g, N)
    with pytest.raises(ValueError, match="order must be >= 1"):
        exp_minus_one(0)


@settings(max_examples=40, deadline=None)
@given(series_with_valuation_two())
def test_julia_equation_for_any_generator(a):
    # any g with g(0) = 0 and g'(0) = 1, at its full order and below
    g = [0, 1, *a[2:]]
    for N in range(1, len(g)):
        assert julia_check(g, N)


def test_koszul_itlog_route_matches_recursion():
    assert koszul_numbers_itlog(14) == koszul_numbers_recursive(14)
    recursive = koszul_numbers_recursive(60)
    assert koszul_numbers_itlog(60) == recursive
    assert koszul_numbers_chain(60) == recursive


def test_koszul_itlog_route_reads_the_public_itlog():
    # the integer form stays on the iterative-logarithm route, apart from
    # the Stirling recursion it is compared with above: the route against
    # the rational reference, not against its own integer form
    a = itlog_fraction(exp_minus_one(41))  # a_m reads g_2..g_m only
    for N in range(1, 41):
        assert koszul_numbers_itlog(N) == [
            0, *(factorial(n + 1) * a[n + 1] for n in range(1, N + 1))], N


def test_julia_for_exp_minus_one_generator():
    g = exp_minus_one(20)
    assert julia_check(g, 20)
    for N in (0, 21):
        with pytest.raises(ValueError, match="order of g"):
            julia_check(g, N)


def test_hurwitz_series_low_orders():
    # a_0(z) = 1/(1-z); a_1(z) = 1/(1-2z) - 1/(1-z);
    # a_2(z) = (1/(1-3z) - 2/(1-2z) + 1/(1-z)) / 2
    assert _hurwitz_form(0, 6) == ([1] * 7, 1)
    assert _hurwitz_form(1, 6) == ([2**n - 1 for n in range(7)], 1)
    assert _hurwitz_form(2, 6) == ([3**n - 2**(n + 1) + 1 for n in range(7)], 2)


def test_psi_of_hurwitz_is_power_of_exp_minus_one():
    for d in range(5):
        # psi sends z^n to t^(n+1)/(n+1)!
        H, h = _hurwitz_form(d, 11)
        lhs = [0] + [rat(c, h * factorial(n + 1)) for n, c in enumerate(H)]
        e = exp_minus_one(12)
        power = [1] + [0] * 12
        for _ in range(d + 1):
            power = kernel_mul(power, e)
        assert lhs == [c * rat(1, factorial(d + 1)) for c in power]


def test_hurwitz_identity_check_reads_every_coefficient(monkeypatch):
    # one composition per d holds on d = 0..6; a_d nudged at any one
    # coefficient fails it
    for d in range(7):
        assert hurwitz_identity_check(d, 15) is True
    original = _hurwitz_form
    for d, n in ((0, 0), (2, 5), (6, 14)):
        def nudged(d_, N, n=n):
            H, h = original(d_, N)
            H[n] += 1
            return H, h

        monkeypatch.setattr(series, "_hurwitz_form", nudged)
        assert hurwitz_identity_check(d, 15) is False
        monkeypatch.setattr(series, "_hurwitz_form", original)


def test_graded_variable_exponential_check():
    for d in range(4):
        assert graded_exponential_check(d, 9)


def test_graded_exponential_check_reads_each_koszul_number_it_reaches(
        monkeypatch):
    # r_n raises the index by n, so from t_d the check reaches K_1..K_(D-d),
    # each first at index d + n, and no further
    D = 7
    for n in range(1, D + 1):
        def nudged(N, n=n):
            values = koszul_numbers_recursive(N)
            values[n] += rat(1, 7)
            return values

        monkeypatch.setattr(series, "koszul_numbers_recursive", nudged)
        for d in range(D + 1):
            assert graded_exponential_check(d, D) == (d + n > D), (d, n)


def test_graded_exponential_check_refuses_bad_indices():
    for d, D in ((-1, 3), (4, 3), (0, 0)):
        with pytest.raises(ValueError, match="need 0 <= d <= D and D >= 1"):
            graded_exponential_check(d, D)


def test_stirling_derivative_identity():
    f = log_one_plus(14)
    for n in range(1, 5):
        assert stirling_derivative_check(f, n, 14)
    # n < 1, N <= n (the n-th derivative would have order 0), N above f's order
    for n, N in ((0, 14), (4, 4), (4, 3), (2, 15)):
        with pytest.raises(ValueError):
            stirling_derivative_check(f, n, N)


def test_stirling_derivative_identity_other_series():
    f = [0, 1, 0, rat(1, 3), 0, rat(-2, 7)] + [0] * 9
    for n in range(1, 4):
        assert stirling_derivative_check(f, n, 14)


def test_int_coefficients_give_no_floats():
    """Plain int lists stay exact: every coefficient out is an int or a Rational."""
    exact = (int, Rational)
    a = [0, 0, 3, -1, 0, 2, 0, 0]
    g = kernel_itexp(a)
    for out in (g, form_itlog(g), form_itlog([0, 1, 1, -2, 0, 5, 0, 0]),
                kernel_compose([1, 2, 0, -1, 4, 0, 0, 7], [0, 1, 3, 0, -2, 0, 0, 1]),
                koszul_numbers_itlog(7)):
        assert all(isinstance(c, exact) for c in out), out
    assert form_itlog(g) == a
    assert julia_check(g, 7) is True
    assert julia_check([0, 1, 1, -2, 0, 5, 0, 0], 7) is True
    f = [0, 1, 2, 0, -3, 0, 0, 0, 1]
    for n in range(1, 4):
        assert stirling_derivative_check(f, n, 8) is True


def _entry_plus_one_sixth(form, *args):
    """The exponential form with 1/3! added to its coefficient of t^3."""
    E, d = form
    return [*E[:3], E[3] + d, *E[4:]], d


JULIA_G = [0, 1, rat(1, 2), -1, 0, rat(3, 7), 2, 0, rat(-5, 3)]
F_MIXED = [0, 1, 0, rat(1, 3), 0, rat(-2, 7)] + [0] * 9


@pytest.mark.parametrize("check, args, nudge, verdict", [
    (julia_check, (JULIA_G, 8), None, True),
    (julia_check, (JULIA_G, 5), None, True),
    (julia_check, (exp_minus_one(20), 20), None, True),
    # a = itlog(g) + t^3/6 adds (g^3 - g' t^3)/6 = g_2 t^4/6 + ... to
    # a(g) - a g', which order 4 reads and order 3 does not
    (julia_check, (JULIA_G, 8), ("_itlog_form", _entry_plus_one_sixth), False),
    (julia_check, (JULIA_G, 3), ("_itlog_form", _entry_plus_one_sixth), True),
    *((stirling_derivative_check, (log_one_plus(16), n, 16), None, True)
      for n in range(1, 5)),
    (stirling_derivative_check, (F_MIXED, 3, 14), None, True),
    (stirling_derivative_check, (log_one_plus(16), 2, 16),
     ("stirling2", lambda s, n, k: s + (k == 1)), False),
    (stirling_derivative_check, (log_one_plus(16), 4, 16),
     ("stirling2", lambda s, n, k: s + (k == 4)), False),
    *((graded_exponential_check, args, None, True)
      for args in ((0, 1), (2, 5), (4, 10))),
    # K_5 is first read at index d + 5
    (graded_exponential_check, (1, 6), ("koszul_numbers_recursive",
     lambda K, N: [*K[:5], K[5] + rat(1, 7), *K[6:]]), False),
    (graded_exponential_check, (2, 6), ("koszul_numbers_recursive",
     lambda K, N: [*K[:5], K[5] + rat(1, 7), *K[6:]]), True),
    *((hurwitz_identity_check, (d, N), None, True)
      for d, N in ((0, 2), (3, 8), (6, 15), (6, 4))),
    # z^3 is a_3's first term; a_6 vanishes to order 5, (e^t - 1)^7 too
    (hurwitz_identity_check, (3, 4), ("_hurwitz_form",
     lambda form, d, N: ([*form[0][:3], 1, *form[0][4:]], form[1])), False),
    (hurwitz_identity_check, (6, 4), ("_hurwitz_form",
     lambda form, d, N: ([1, *form[0][1:]], form[1])), False),
], ids=lambda v: getattr(v, "__name__", None))
def test_series_checks_verdicts(monkeypatch, check, args, nudge, verdict):
    # each check on plain inputs, and with one value it reads nudged, where
    # the nudge is one the check can see (False) or one out of its reach
    if nudge is not None:
        name, change = nudge
        original = getattr(series, name)
        monkeypatch.setattr(series, name,
                            lambda *a: change(original(*a), *a))
    assert check(*args) is verdict
