"""The fault matrix: which identity suites catch a fault in a kernel.

Each fault is applied with ``monkeypatch`` before a fresh signature builds
any table, and the test asserts the set of suites with a failing entry in
the registry at (2,2,4), N = 4, seed 42, and, for a fault in mu or in the
insertion node's divisor, also on the associative (2,1,3), where the
bracket route is the definition.  A fault wraps or replaces a
kernel, or recompiles it from its source with one edit (``_mutate``).  A
suite that stops catching a fault, or starts failing on the clean kernels,
fails the test.  A failing check stops at its first mismatch, so a faulted
registry costs less than a clean one.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import textwrap
from bisect import bisect_right
from collections import Counter
from functools import lru_cache

import pytest

import antibrackets
from antibrackets import brackets, multilinear
from antibrackets.checks import registry
from antibrackets.superalgebra import Signature

SUITES = ("jacobi", "universal", "inversion", "linf", "order", "series")


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


def _replace_everywhere(monkeypatch, name, make):
    """Every module of the package that binds ``name`` binds
    ``make(original)`` in its place, which is returned."""
    modules = [importlib.import_module(f"antibrackets.{info.name}")
               for info in pkgutil.iter_modules(antibrackets.__path__)]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    replacement = make(original)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return replacement


def _wrap_everywhere(monkeypatch, name, wrap):
    """Every module of the package that binds ``name`` calls
    ``wrap(original, *args)`` in its place."""
    _replace_everywhere(monkeypatch, name,
                        lambda original: lambda *args: wrap(original, *args))


def _mutate(monkeypatch, name, old, new):
    """The function ``name`` recompiled from its source with the text
    ``old``, which occurs once, replaced by ``new``; every module that binds
    it binds the mutant, which is returned.  A cached function is recompiled
    with its decorator, so the mutant starts with an empty cache."""
    def mutant(original):
        original = inspect.unwrap(original)
        source = textwrap.dedent(inspect.getsource(original))
        assert source.count(old) == 1, (name, old)
        namespace = dict(original.__globals__)
        exec(compile(source.replace(old, new), inspect.getsourcefile(original),
                     "exec"), namespace)
        return namespace[name]

    return _replace_everywhere(monkeypatch, name, mutant)


def _bisect_right_for_left(monkeypatch):
    """The insertion kernel puts an inserted index after its equal entries,
    so a repeated odd index is not skipped and an odd index passes the wrong
    odd arguments."""
    monkeypatch.setattr(multilinear, "bisect_left", bisect_right)


def _negate_full_block_product(monkeypatch):
    """The entry of the full block of every :meth:`Signature.subset_products`
    table of three or more indices is negated."""
    original = Signature.subset_products

    def negated(self, indices):
        table = original(self, indices)
        if len(indices) >= 3:
            s, k = table[-1]
            table[-1] = (-s, k)
        return table

    monkeypatch.setattr(Signature, "subset_products", negated)


def _double_k3(monkeypatch):
    """K_3 doubled in ``koszul_numbers_recursive``."""
    def doubled(original, N):
        values = original(N)
        if N >= 3:
            values[3] *= 2
        return values

    _wrap_everywhere(monkeypatch, "koszul_numbers_recursive", doubled)


def _shift_c13(monkeypatch):
    """c_1^3 + 1 in ``coefficient_series``."""
    def shifted(original, N):
        series = original(N)
        if 3 in series:
            series[3] = (series[3][0] + 1, *series[3][1:])
        return series

    _wrap_everywhere(monkeypatch, "coefficient_series", shifted)


def _negate_mu_bracket_factor(monkeypatch):
    """``mu_bracket_factor(2, 1)`` negated."""
    def negated(original, n, m):
        return -original(n, m) if (n, m) == (2, 1) else original(n, m)

    _wrap_everywhere(monkeypatch, "mu_bracket_factor", negated)


def _kernel_ignores_shift(monkeypatch):
    """The series kernel reads v where it should read v', so x v' is x v."""
    _mutate(monkeypatch, "_kernel", "V[lead:m + shift + 1]", "V[lead:m + 1]")


def _kernel_binomial_off_by_one(monkeypatch):
    """The series kernel weighs X[i] by C(m + 1, i) for C(m, i)."""
    _mutate(monkeypatch, "_kernel", "comb(m, i)", "comb(m + 1, i)")


def _stirling_exponential_off_by_one(monkeypatch):
    """The Stirling derivative check multiplies f^(k)(e^t - 1) by
    e^((k+1)t) where it should multiply by e^(kt)."""
    _mutate(monkeypatch, "stirling_derivative_check", "k ** j", "(k + 1) ** j")


def _shape_weights_dropped(monkeypatch):
    """Every class of blocks of a repeated-argument shuffle table weighs 1,
    as if one block picked each sub-multiset of the repeated entries."""
    _mutate(monkeypatch, "_shuffle_shapes", "weight * comb(m, c)", "weight")


def _combination_rounds_down(monkeypatch):
    """``_divided`` divides each entry by its denominator with ``//``, so a
    rational entry of a combination, an insertion node or mu is rounded
    down."""
    _mutate(monkeypatch, "_divided",
            "v // den if not v % den else rat(v, den)", "v // den")


def _combination_skips_division(monkeypatch):
    """``_divided`` returns the weighted sums undivided, so every
    combination and every insertion node is scaled by its divisor, and mu_n
    by n+1."""
    _mutate(monkeypatch, "_divided", "if den == 1:", "if den:")


def _insertion_undivided(monkeypatch):
    """Every insertion node returns its summed terms undivided, so each
    level n of the bracket route is scaled by n and the exponential route's
    top degree by its divisor K! L^K."""
    _mutate(monkeypatch, "_insertions", "_divided(acc, den)", "_nonzero(acc)")


def _recursion_sign_flipped(monkeypatch):
    """The recursive construction adds (-1)^(|b||c|) Phi^(r-1)(.., c) b
    where it should subtract it."""
    mutant = _mutate(monkeypatch, "_recursion_ops", "-swap)", "swap)")
    monkeypatch.setitem(brackets._METHODS, "recursion", mutant)


def _new_column_doubled(monkeypatch):
    """The induction systems' new column rho_n (Phi(1,1)) is 2 in row 0 and
    -2 in row n, so every column rho_1^(n-i) rho_i (Phi(1,1)) with i >= 2 is
    doubled, every c_i^n with i >= 2 is halved and b_n stays 0."""
    _mutate(monkeypatch, "_induction_systems", "(j == 0) - (j == n)",
            "2 * (j == 0) - 2 * (j == n)")


def _itlog_horner_drops_k(monkeypatch):
    """The integer iterative logarithm sums V_k[m] / k! without the factor
    k of each Horner step, so every a_m from m = 4 on is wrong."""
    _mutate(monkeypatch, "_itlog_form", "rest = rest * k * Q + vkm",
            "rest = rest * Q + vkm")


def _mu_divided_by_n(monkeypatch):
    """mu_n divides its sum over the last argument by n where it should
    divide by n+1."""
    _mutate(monkeypatch, "_mu_node", "_divided(acc, n + 1)", "_divided(acc, n)")


def _mu_weight_dropped(monkeypatch):
    """mu_n takes a repeated last argument once, not once per copy."""
    _mutate(monkeypatch, "_mu_node", "signs[full ^ mask] * weight",
            "signs[full ^ mask]")


def _mu_sign_to_the_front(monkeypatch):
    """mu_n signs each term by moving its last argument to the front where
    it should move it to the end."""
    _mutate(monkeypatch, "_mu_node", "signs[full ^ mask]", "signs[mask]")


def _failing_entries(sig):
    """{suite: number of failing registry entries} at N = 4, seed 42."""
    return dict(Counter(suite for suite, _, thunk in registry(sig, 4, 42, SUITES)
                        if thunk() is not None))


@pytest.mark.parametrize("fault, caught_by", [
    (None, set()),
    # 3 / 18 / 0 / 0 / 1 / 0 failing entries (jacobi / universal / inversion
    # / linf / order / series)
    (_flip_first_block_sign, {"jacobi", "universal", "order"}),
    # 6 / 18 / 0 / 1 / 2 / 0
    (_flip_odd_inversion_sign, {"jacobi", "universal", "linf", "order"}),
    # 6 / 12 / 0 / 0 / 0 / 0
    (_bisect_right_for_left, {"jacobi", "universal"}),
    # 3 / 17 / 0 / 0 / 2 / 0
    (_negate_full_block_product, {"jacobi", "universal", "order"}),
    # 0 / 3 / 0 / 0 / 0 / 5: the exponential route and the standard forms,
    # and the graded-variable exponential checks
    (_double_k3, {"universal", "series"}),
    # 0 / 3 / 0 / 0 / 0 / 0
    (_shift_c13, {"universal"}),
    # 0 / 1 / 0 / 0 / 0 / 0
    (_negate_mu_bracket_factor, {"universal"}),
    # 0 / 0 / 0 / 0 / 0 / 6: the Julia equation and the graded-variable
    # exponential checks read x v'
    (_kernel_ignores_shift, {"series"}),
    # 0 / 0 / 0 / 0 / 0 / 17: every entry of the series suite
    (_kernel_binomial_off_by_one, {"series"}),
    # 0 / 0 / 0 / 0 / 0 / 4: every Stirling derivative entry, n = 1..4
    (_stirling_exponential_off_by_one, {"series"}),
    # 6 / 21 / 0 / 1 / 2 / 0: the inversion check reads only the tables of
    # distinct positions, (1,) * n, where every class weighs 1
    (_shape_weights_dropped, {"jacobi", "universal", "linf", "order"}),
    # 0 / 0 / 0 / 0 / 0 / 0: every division the registry makes here is
    # exact, so rounding it down changes nothing; tests/test_multilinear.py::
    # test_op_combination_divides_inexact_sums_of_integral_operators, whose
    # int weights 3 and 2 over the divisor 6 leave rationals, fails
    (_combination_rounds_down, set()),
    # 0 / 18 / 0 / 0 / 0 / 0
    (_combination_skips_division, {"universal"}),
    # 0 / 3 / 0 / 0 / 0 / 0
    (_recursion_sign_flipped, {"universal"}),
    # 0 / 6 / 0 / 0 / 0 / 0: the standard forms of degrees 3 and 4, through
    # coefficient_series(3)
    (_new_column_doubled, {"universal"}),
    # 0 / 0 / 0 / 0 / 0 / 1: the Julia entry reads itlog of the given g
    (_itlog_horner_drops_k, {"series"}),
    # 0 / 6 / 0 / 0 / 0 / 0: the identity-operator and mu-bracket entries,
    # which read mu's memo, against the product table the routes read
    (_mu_divided_by_n, {"universal"}),
    # 0 / 6 / 0 / 0 / 0 / 0
    (_mu_weight_dropped, {"universal"}),
    # 0 / 6 / 0 / 0 / 0 / 0
    (_mu_sign_to_the_front, {"universal"}),
    # 0 / 7 / 0 / 0 / 0 / 0: the bracket and exponential constructions of
    # every seed, and the identity-operator bracket of degree 3
    (_insertion_undivided, {"universal"}),
], ids=["clean", "shuffle-sign", "odd-inversion-sign", "insertion-bisect",
        "full-block-product", "koszul-k3", "series-c13", "mu-bracket-factor",
        "kernel-shift", "kernel-binomial", "stirling-exponential",
        "shape-weights",
        "combination-rounds-down",
        "combination-undivided", "recursion-sign", "new-column-doubled",
        "itlog-horner", "mu-divided-by-n", "mu-weight", "mu-sign-to-the-front",
        "insertion-undivided"])
def test_fault_is_caught_by_the_named_suites(monkeypatch, fault, caught_by):
    if fault is not None:
        fault(monkeypatch)
    assert set(_failing_entries(Signature(even=2, odd=2, degree_bound=4))) == caught_by


@pytest.mark.parametrize("fault, caught_by", [
    (None, set()),
    # 0 / 7 / 0 / 0 / 0 / 0 (linf and order are skipped on an associative
    # signature)
    (_mu_divided_by_n, {"universal"}),
    # 0 / 7 / 0 / 0 / 0 / 0
    (_mu_weight_dropped, {"universal"}),
    # 0 / 0 / 0 / 0 / 0 / 0: no suite sees it; the associative cases of
    # tests/test_multilinear.py::test_mu_is_the_symmetrized_product and the
    # four associative hierarchy pins of tests/test_cli.py fail
    (_mu_sign_to_the_front, set()),
    # 3 / 10 / 0 / 0 / 0 / 0: the bracket route is the hierarchy here, so the
    # Jacobi entries of n = 3 fail, and in universal the bracket==exponential
    # constructions, the standard forms of degrees 3 and 4 and the
    # identity-operator bracket of degree 3
    (_insertion_undivided, {"jacobi", "universal"}),
], ids=["clean", "mu-divided-by-n", "mu-weight", "mu-sign-to-the-front",
        "insertion-undivided"])
def test_associative_mu_fault_is_caught_by_the_named_suites(
        monkeypatch, fault, caught_by):
    """The faults in mu and in the insertion node's divisor on the
    associative (2,1,3), where the bracket route defines the hierarchy."""
    if fault is not None:
        fault(monkeypatch)
    sig = Signature(even=2, odd=1, degree_bound=3, commutative=False)
    assert set(_failing_entries(sig)) == caught_by


def test_new_column_sign_fault_fails_the_standard_forms(monkeypatch):
    """With the new column's -1 in row n written as +1, the system of degree
    2 solves with b_2 = 1/2; the universal suite solves inside its
    standard-form checks, so each of them fails with that text, and every
    other entry, which reads no induction system, passes."""
    _mutate(monkeypatch, "_induction_systems", "(j == 0) - (j == n)",
            "(j == 0) + (j == n)")
    sig = Signature(even=2, odd=2, degree_bound=4)
    failed = {}
    for _, label, thunk in registry(sig, 4, 42, SUITES):
        outcome = thunk()
        if outcome is not None:
            failed[label] = outcome
    assert failed == {f"standard form degree {n} seed={seed}":
                      "auxiliary coefficient b_2 = 1/2 != 0"
                      for seed in (42, 43, 44) for n in (2, 3, 4)}
