from __future__ import annotations

import json
import random

import pytest

from antibrackets import brackets
from antibrackets.brackets import (
    differential_order_check,
    exp_rho_family,
    hierarchy_to_json,
    inversion_check,
    linfinity_check,
    phi_direct_op,
    phi_hierarchy,
)
from antibrackets.checks import registry
from antibrackets.multilinear import (
    derivation_endo,
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
from antibrackets.rational import parse_rational, rat
from antibrackets.superalgebra import Signature

SIG = Signature(even=1, odd=1, degree_bound=3)
NC = Signature(even=1, odd=1, degree_bound=3, commutative=False)
METHODS = ("direct", "recursion", "bracket", "exponential")


def test_phi_one_is_the_operator_itself():
    f = random_endo(SIG, 1, parity="even")
    op = phi_direct_op(f, 1)
    for m in SIG.basis():
        assert op.value((m,)) == f(m)


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


def test_linfinity_rejects_non_square_zero():
    f = random_endo(SIG, 31, parity="odd")
    if not is_zero_op(nr_product(f, f)):
        with pytest.raises(ValueError):
            linfinity_check(f, 2)
    with pytest.raises(ValueError):
        linfinity_check(random_endo(SIG, 1, parity="even"), 2)


def test_differential_order_of_derivations():
    d = derivation_endo(SIG)
    assert differential_order_check(d, 1)
    assert not is_zero_op(phi_direct_op(d, 1))
    d2 = nr_product(d, d)
    assert differential_order_check(d2, 2)
    assert not is_zero_op(phi_direct_op(d2, 2))
    assert differential_order_check(linear_op(SIG, {}, parity=0), 0)


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
    delta = odd_partial_endo(SIG)
    assert is_zero_op(phi_direct_op(delta, 2))
    theta = SIG.monomial_element(SIG.odd_generator(0))
    assert not is_zero_op(phi_direct_op(multiplication_endo(SIG, theta), 2))


def test_hierarchy_json_round_trip():
    f = random_endo(SIG, 2, parity="even")
    h = phi_hierarchy(f, 2)
    payload = json.loads(json.dumps(hierarchy_to_json(h, 2)))
    assert [entry["n"] for entry in payload] == [1, 2]
    for entry in payload:
        for tup, element in entry["table"]:
            assert len(tup) == entry["n"]
            for coeff in element.values():
                parse_rational(coeff)


def test_first_mismatch_reports_jacobi_failure_shape():
    f = random_endo(SIG, 2, parity="even")
    lhs = phi_direct_op(f, 2)
    rhs = op_combination([(lhs, -1)])
    found = first_mismatch(lhs, rhs)
    assert found is not None and len(found) == 3
