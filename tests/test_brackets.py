from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import brackets, multilinear
from antibrackets.brackets import (
    differential_order_check,
    exp_rho_family,
    inversion_check,
    linfinity_check,
    phi_direct_op,
    phi_hierarchy,
)
from antibrackets.checks import registry
from antibrackets.multilinear import (
    SHAPE_CACHE_SIZE,
    MultiOp,
    canonical_index_tuples,
    first_mismatch,
    is_zero_op,
    linear_op,
    mu,
    multiplication_endo,
    nr_product,
    odd_partial_endo,
    op_combination,
    ops_equal,
    random_endo,
)
from antibrackets.rational import rat
from antibrackets.superalgebra import Signature, koszul_sign

SIG = Signature(even=1, odd=1, degree_bound=3)
NC = Signature(even=1, odd=1, degree_bound=3, commutative=False)
METHODS = ("direct", "recursion", "bracket", "exponential")


def test_phi_one_is_the_operator_itself():
    f = random_endo(SIG, 1, parity="even")
    op = phi_direct_op(f, 1)
    for m in SIG.basis():
        assert op.value((m,)) == f(m)


def _reference_phi_direct_op(f, n):
    """Phi^n_f by the shuffle formula, one block at a time: each block's
    and each complement's product by mul_indices, each sign by koszul_sign."""
    sig = f.signature
    positions = range(n)

    def eval_basis(tup):
        basis_parities = sig.basis_parities()
        parities = [basis_parities[i] for i in tup]
        acc = {}
        for k in range(1, n + 1):
            outer_sign = (-1) ** (n - k)
            for block in itertools.combinations(positions, k):
                s, j = sig.mul_indices([tup[i] for i in block])
                image = f._canonical_value((j,)) if s else None
                if not image:
                    continue
                rest = tuple(i for i in positions if i not in block)
                total = s * outer_sign * koszul_sign(block + rest, parities)
                if not rest:
                    for t, c in image.items():
                        acc[t] = acc.get(t, 0) + total * c
                    continue
                r, tail = sig.mul_indices([tup[i] for i in rest])
                if r:
                    sig.mul_into(acc, image.items(), tail, r * total)
        return {t: c for t, c in acc.items() if c}

    return MultiOp(sig, n - 1, f.parity, eval_basis)


@pytest.mark.parametrize("sig", [
    SIG,
    Signature(even=2, odd=1, degree_bound=3, unital=False),
    Signature(even=1, odd=2, degree_bound=2),
], ids=repr)
def test_direct_route_matches_block_by_block_reference(sig):
    # tuples up to two degrees past the comparison domain, which nr_product
    # reads; on a unital signature unit arguments never make a product die
    for seed, parity in ((11, "even"), (12, "odd")):
        f = random_endo(sig, seed, parity=parity, density=0.5)
        beyond = 0
        for n in range(1, 7):
            op, ref = phi_direct_op(f, n), _reference_phi_direct_op(f, n)
            for tup in canonical_index_tuples(sig, n, sig.degree_bound + 2):
                value = op._canonical_value(tup)
                assert value == ref._canonical_value(tup), (n, tup)
                beyond += bool(value) and sum(
                    sig.degree(sig.basis()[i]) for i in tup) > sig.degree_bound
        assert beyond


def test_phi_two_explicit_formula():
    f = random_endo(SIG, 2, parity="even")
    op = phi_direct_op(f, 2)
    for a in SIG.basis():
        for b in SIG.basis():
            ea, eb = SIG.monomial_element(a), SIG.monomial_element(b)
            sign = (-1) ** (SIG.parity(a) * SIG.parity(b))
            expected = f(ea * eb) - f(ea) * eb - (f(eb) * ea).scale(sign)
            assert op(ea, eb) == expected


def test_all_constructions_agree():
    for seed, parity in ((3, "even"), (4, "odd")):
        f = random_endo(SIG, seed, parity=parity)
        hierarchies = {m: phi_hierarchy(f, 4, method=m) for m in METHODS}
        for n in range(1, 5):
            base = hierarchies["direct"][n]
            for m in METHODS[1:]:
                assert ops_equal(base, hierarchies[m][n]), (seed, n, m)


def test_single_bracket_helpers_match_hierarchy(monkeypatch):
    f = random_endo(SIG, 9, parity="even")
    direct = phi_direct_op(f, 3)
    for method in ("recursion", "bracket"):
        assert ops_equal(phi_hierarchy(f, 3, method=method)[3], direct)
    # without a method, the signature's defining construction is used
    monkeypatch.setattr(
        brackets, "_METHODS", {m: lambda f, N, m=m: m for m in brackets._METHODS})
    assert phi_hierarchy(f, 3) == "direct"
    assert phi_hierarchy(random_endo(NC, 9, parity="even"), 3) == "bracket"


def test_phi_direct_on_elements():
    f = random_endo(SIG, 5, parity="even")
    op = phi_hierarchy(f, 2)[2]
    x = SIG.monomial_element(SIG.even_generator(0))
    x2 = x * x
    y = x + x2.scale(2)
    expected = op(x, x) + op(x, x2).scale(2) + op(x2, x).scale(2) + op(x2, x2).scale(4)
    assert op(y, y) == expected
    assert op(x, x) == f(x * x) - f(x) * x - f(x) * x


def test_operators_refuse_elements_of_another_signature():
    a = Signature(even=2, odd=2, degree_bound=5)
    b = Signature(even=1, odd=1, degree_bound=3)
    op = phi_direct_op(random_endo(a, 1), 2)
    x_b = b.monomial_element(b.odd_generator(0))
    y_a = a.monomial_element(a.even_generator(1))
    for call in (lambda: op(x_b, y_a), lambda: op.value((y_a, x_b))):
        with pytest.raises(ValueError, match="signature mismatch"):
            call()


def test_unknown_method_raises():
    f = random_endo(SIG, 1, parity="even")
    with pytest.raises(ValueError):
        phi_hierarchy(f, 2, method="nope")


def test_direct_requires_commutative():
    f = random_endo(NC, 1, parity="even")
    with pytest.raises(ValueError):
        phi_direct_op(f, 2)


def _run_registry(sig, N, seed, suites, prefixes=("",)):
    """Run the registry entries of ``suites`` whose label starts with one of
    ``prefixes``, assert that each holds, and return their labels."""
    labels = []
    for suite, label, thunk in registry(sig, N, seed, suites):
        if label.startswith(prefixes):
            assert thunk() is None, (suite, label)
            labels.append(label)
    return labels


def test_identity_hierarchy_components():
    # the identity operator's hierarchy: Phi^(n+1) == (-1)^n mu_n, n = 0..3
    for sig in (SIG, NC):
        labels = _run_registry(sig, 4, 0, ["universal"], ("identity-operator",))
        assert len(labels) == 4


def test_exp_rho_family_with_zero_coefficients_is_identity():
    f = random_endo(SIG, 8, parity="even")
    # a zero coefficient is dropped before the n >= 1 check
    family = exp_rho_family(f, {0: rat(0), 1: rat(0), 2: rat(0)}, 3)
    assert set(family) == {0}
    assert ops_equal(family[0], f)


@pytest.mark.parametrize("coefficients", [{0: 1}, {-1: 2}, {0: 1, 1: 1}])
def test_exp_rho_family_rejects_coefficients_below_one(coefficients):
    # rho_0 keeps the degree, so the series would never reach the cutoff
    f = random_endo(SIG, 8, parity="even")
    with pytest.raises(ValueError, match="n >= 1"):
        exp_rho_family(f, coefficients, 2)


def test_exponential_hierarchy_matches_direct():
    f = random_endo(SIG, 10, parity="odd")
    exp_h = phi_hierarchy(f, 4, method="exponential")
    for n in range(1, 5):
        assert ops_equal(exp_h[n], phi_direct_op(f, n))


def test_inversion_formula_random_tuples():
    rng = random.Random(0)
    basis = [m for m in SIG.basis() if SIG.degree(m) >= 1]
    for seed, parity in ((1, "even"), (2, "odd")):
        f = random_endo(SIG, seed, parity=parity)
        for n in range(1, 5):
            for _ in range(3):
                args = [rng.choice(basis) for _ in range(n)]
                assert inversion_check(f, n, args)


def test_inversion_rejects_inhomogeneous_arguments():
    f = random_endo(SIG, 1, parity="even")
    x = SIG.monomial_element(SIG.even_generator(0))
    th = SIG.monomial_element(SIG.odd_generator(0))
    with pytest.raises(ValueError):
        inversion_check(f, 1, [x + th])


def test_inversion_rejects_n_below_one():
    f = random_endo(SIG, 1, parity="even")
    with pytest.raises(ValueError, match="n must be >= 1"):
        inversion_check(f, 0, [])


def test_phi_hierarchy_rejects_n_below_one():
    f = random_endo(SIG, 1, parity="even")
    for N in (0, -2):
        for method in METHODS:
            with pytest.raises(ValueError, match="N must be >= 1"):
                phi_hierarchy(f, N, method=method)


def test_registry_rejects_n_below_one():
    # checked at the call, before any entry is generated
    for N in (0, -3):
        for suites in (["jacobi"], ["universal"], ["series"]):
            with pytest.raises(ValueError, match="N must be >= 1"):
                registry(SIG, N, 42, suites)


def test_generalized_jacobi_commutative_and_not():
    # f = random_endo(seed 21), g = random_endo(seed 22), n = 1..3
    for sig in (SIG, NC):
        assert len(_run_registry(sig, 4, 21, ["jacobi"])) == 9


def test_linfinity_for_square_zero_operators():
    delta = odd_partial_endo(SIG)
    assert linfinity_check(delta, 3)
    theta = SIG.monomial_element(SIG.odd_generator(0))
    assert linfinity_check(multiplication_endo(SIG, theta), 3)


def test_linf_skips_non_unital_signatures():
    # d/dth1 sends th1 to the unit, which a non-unital basis lacks
    sig = Signature(even=0, odd=1, degree_bound=2, unital=False)
    with pytest.raises(ValueError, match="no unit monomial"):
        odd_partial_endo(sig)
    assert _run_registry(sig, 4, 1, ["linf"]) == [
        "linf (skipped: d/dth1 needs a unital signature)"]


def test_linfinity_rejects_non_square_zero():
    f = random_endo(SIG, 31, parity="odd")
    if not is_zero_op(nr_product(f, f)):
        with pytest.raises(ValueError):
            linfinity_check(f, 2)
    with pytest.raises(ValueError):
        linfinity_check(random_endo(SIG, 1, parity="even"), 2)


def test_differential_order_of_derivations():
    # the order suite holds d/dx1 and its square; here the criterion's edges
    assert differential_order_check(linear_op(SIG, {}, parity=0), 0)
    for sig, needs in ((NC, "commutative"),
                       (Signature(1, 1, 3, unital=False), "unital")):
        with pytest.raises(ValueError, match=f"needs a {needs} signature"):
            differential_order_check(random_endo(sig, 1), 1)


@pytest.mark.parametrize("entry", [
    lambda f: phi_hierarchy(f, 2),
    lambda f: phi_direct_op(f, 2),
    lambda f: inversion_check(f, 1, [SIG.even_generator(0)]),
    lambda f: linfinity_check(f, 2),
    lambda f: differential_order_check(f, 1),
], ids=["phi_hierarchy", "phi_direct_op", "inversion_check", "linfinity_check",
        "differential_order_check"])
def test_entry_points_refuse_operators_of_nonzero_degree(entry):
    with pytest.raises(ValueError, match=r"linear operator \(degree 0\), got degree 1"):
        entry(mu(SIG, 1))


def test_odd_derivation_brackets_vanish_above_one():
    assert is_zero_op(phi_direct_op(odd_partial_endo(SIG), 2))


def test_first_mismatch_reports_jacobi_failure_shape():
    f = random_endo(SIG, 2, parity="even")
    lhs = phi_direct_op(f, 2)
    rhs = op_combination([(lhs, -1)])
    found = first_mismatch(lhs, rhs)
    assert found is not None and len(found) == 3


def test_shape_caches_are_bounded():
    for cached in (multilinear._shuffle_plan, brackets._direct_signs):
        assert cached.cache_info().maxsize == SHAPE_CACHE_SIZE


# -- sweep over signature shapes ---------------------------------------------
# (p, q, D, commutative, unital) with p, q in 0..2, p + q >= 1, D in 1..3.
# The draws are fixed, so the cost and the covered shapes repeat: all 96
# shapes take 8.4 s, most of it on the associative D = 3 unital ones.

SHAPES = [
    shape for shape in itertools.product(
        range(3), range(3), range(1, 4), (True, False), (True, False))
    if shape[0] + shape[1] >= 1
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SHAPES), st.integers(0, 2**16))
def test_constructions_agree_across_signature_shapes(shape, seed):
    even, odd, degree, commutative, unital = shape
    sig = Signature(even, odd, degree, commutative=commutative, unital=unital)
    methods = METHODS if commutative else ("bracket", "exponential")
    for parity in ("even", "odd"):
        f = random_endo(sig, seed, parity=parity, density=0.5)
        hierarchies = {m: phi_hierarchy(f, 4, method=m) for m in methods}
        for n in range(1, 5):
            base = hierarchies[methods[0]][n]
            for m in methods[1:]:
                assert ops_equal(base, hierarchies[m][n]), (shape, parity, n, m)


def test_registry_holds_on_every_commutative_shape():
    # every entry of the signature suites at N = 4, seed 1
    suites = ["jacobi", "universal", "inversion", "linf", "order"]
    for even, odd, degree, commutative, unital in SHAPES:
        if commutative:
            sig = Signature(even, odd, degree, unital=unital)
            assert _run_registry(sig, 4, 1, suites), sig


def _arguments_within_bound(draw, sig, n):
    """n basis monomials whose degrees sum to at most D, or None if the
    signature has no such tuple (non-unital with D < n)."""
    basis = sig.basis()
    low = 0 if sig.unital else 1
    budget = sig.degree_bound - low * n
    if budget < 0:
        return None
    args = []
    for _ in range(n):
        options = [m for m in basis if sig.degree(m) - low <= budget]
        m = draw(st.sampled_from(options))
        budget -= sig.degree(m) - low
        args.append(m)
    return args


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from([s for s in SHAPES if s[3]]), st.integers(0, 2**16),
       st.data())
def test_inversion_holds_across_signature_shapes(shape, seed, data):
    even, odd, degree, _, unital = shape
    sig = Signature(even, odd, degree, unital=unital)
    for parity in ("even", "odd"):
        f = random_endo(sig, seed, parity=parity, density=0.5)
        for n in range(1, 5):
            args = _arguments_within_bound(data.draw, sig, n)
            if args is not None:
                assert inversion_check(f, n, args), (shape, parity, args)
