from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from antibrackets import cli
from antibrackets.brackets import exp_rho_family, phi_hierarchy
from antibrackets.checks import registry
from antibrackets.combinatorics import koszul_numbers_recursive
from antibrackets.multilinear import _index_tuples, random_endo
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
# fresh process: all are boundary values, none an operator value or a
# weight.  They are the Koszul numbers the exponential route reads (12) and
# their negations (9), the standard forms' solved coefficients (9) and the
# mu-bracket factors (3) (72 when the exponential route made two rationals
# per coefficient and weighed its components by 1/(k! L^k), and the
# standard forms and mu-bracket entries handed op_combination rational
# weights; 115 when each level of the bracket route was a second node
# dividing by n! and op_combination converted each weight through a
# rational); every other commutative suite below runs on ints only
UNIVERSAL_RATIONALS = 33

# Rationals that the series suite makes at (2,2,4), N = 5, seed 1, on
# Python 3.11, in a fresh process: the Julia equation 21 (the coefficients
# of e^t - 1, the g it takes the iterative logarithm of on ints), the
# five graded-variable checks 55 (the 11 Koszul numbers each reads) and 2
# for the coefficients 1/3 and -2/7 of the series the Stirling derivative
# entries share.  The seven psi/Hurwitz and four Stirling entries make
# none: every check runs the series kernel on exponential forms and
# compares them on ints (99 when the Julia entry was handed the 21
# rational coefficients of itlog(e^t - 1) too, 114 when the Stirling
# entries shared the 17 coefficients of log(1+t), 1,983 when the kernel
# took and returned rationals, 2,648 when the psi/Hurwitz entries built
# (e^t - 1)^(d+1) product by product, 6,373 when the graded-variable
# checks summed term by term too, 63,615 when every series operation did)
SERIES_RATIONALS = 78

# Rationals that the in-process `conjecture --max-n 20 --format json` and
# `koszul-numbers --max-n 15 --format json` make on Python 3.11: one per
# solved coefficient and b_n (230), and one per K_n of each of the three
# routes plus one per n!*K_n (63).  `koszul_numbers_itlog` reading each
# K_n as (n+1)! times a rational coefficient of itlog(e^t - 1), not as one
# division of the integer form, makes 97 and fails the test
REPORT_RATIONALS = {"conjecture": 230, "koszul-numbers": 63}

fraction_backend_only = pytest.mark.skipif(
    Rational is not Fraction,
    reason="counts through the constructor of fractions.Fraction")


def _counting_constructor(monkeypatch):
    """A one-cell list that counts every rational constructed from now on."""
    made = [0]
    new = Rational.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Rational, "__new__", staticmethod(counted))
    return made


def _rationals_made(monkeypatch, N, suites):
    """{suite: rationals constructed by its registry entries} at (2,2,4),
    seed 1; every entry must pass."""
    made = _counting_constructor(monkeypatch)
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
@pytest.mark.parametrize("method", ["direct", "recursion", "bracket"])
def test_routes_make_no_rationals_on_integer_data(monkeypatch, method):
    # every value is an int: the bracket route divides each level's sum
    # once by n, which divides it exactly
    made = _counting_constructor(monkeypatch)
    sig = Signature(even=2, odd=2, degree_bound=4)
    for seed, parity in ((1, "even"), (2, "odd")):
        hierarchy = phi_hierarchy(random_endo(sig, seed, parity=parity), 5,
                                  method=method)
        for n, op in hierarchy.items():
            for tup in _index_tuples(sig, n):
                op._canonical_value(tup)
    assert made[0] == 0, made[0]


@fraction_backend_only
def test_exponential_route_makes_no_rationals_on_its_coefficients(monkeypatch):
    # the negated Koszul numbers are the boundary values; exp_rho_family
    # turns them into int weights and writes every component over one int
    # divisor, so building and reading the components makes none (30 when
    # it made two rationals per coefficient and weighed each component's
    # parts by rationals 1/(k! L^k))
    koszul = koszul_numbers_recursive(4)
    coefficients = {n: -koszul[n] for n in range(1, 5)}
    made = _counting_constructor(monkeypatch)
    sig = Signature(even=2, odd=2, degree_bound=4)
    for seed, parity in ((1, "even"), (2, "odd")):
        components = exp_rho_family(random_endo(sig, seed, parity=parity),
                                    coefficients, 4)
        for op in components.values():
            for tup in _index_tuples(sig, op.arity):
                op._canonical_value(tup)
    assert made[0] == 0, made[0]


@fraction_backend_only
def test_series_suite_rationals_stay_within_allowance(monkeypatch):
    counts = _rationals_made(monkeypatch, 5, ("series",))
    assert counts["series"] <= SERIES_RATIONALS, counts


@fraction_backend_only
def test_psi_and_stirling_entries_make_no_rationals(monkeypatch):
    made = _counting_constructor(monkeypatch)
    sig = Signature(even=2, odd=2, degree_bound=4)
    entries = [(label, thunk)
               for _, label, thunk in registry(sig, 5, 1, ["series"])
               if label.startswith(("psi", "Stirling"))]
    assert len(entries) == 11
    for label, thunk in entries:
        made[0] = 0
        assert thunk() is None, label
        assert made[0] == 0, label


@fraction_backend_only
def test_coefficient_reports_stay_within_rational_allowance(monkeypatch, capsys):
    made = _counting_constructor(monkeypatch)
    for command, N in (("conjecture", 20), ("koszul-numbers", 15)):
        made[0] = 0
        assert cli.main([command, "--max-n", str(N), "--format", "json"]) == 0
        capsys.readouterr()
        assert made[0] <= REPORT_RATIONALS[command], (command, made[0])
