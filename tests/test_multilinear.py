from __future__ import annotations

import gc
import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets.multilinear import (
    MultiOp,
    _shuffle_plan,
    canonical_index_tuples,
    canonical_tuples,
    dump_operator,
    first_mismatch,
    is_zero_op,
    mu,
    mu_for,
    mu_sym,
    nr_bracket,
    nr_product,
    op_combination,
    ops_equal,
    random_endo,
    rho,
)
from antibrackets.rational import rat
from antibrackets.superalgebra import Signature, koszul_sign, shuffles

SIG = Signature(even=1, odd=2, degree_bound=4)
NC = Signature(even=1, odd=1, degree_bound=3, commutative=False)


def test_value_is_supersymmetric():
    op = mu(SIG, 2)
    tuples = canonical_tuples(SIG, 3)
    for tup in tuples[:40]:
        base = op.value(tup)
        parities = [SIG.parity(m) for m in tup]
        for perm in itertools.permutations(range(3)):
            reordered = tuple(tup[i] for i in perm)
            sign = koszul_sign(perm, parities)
            assert op.value(reordered) == base.scale(sign)


def test_repeated_odd_argument_vanishes():
    op = mu(SIG, 1)
    th = SIG.odd_generator(0)
    assert op.value((th, th)).is_zero()


def test_call_expands_multilinearly():
    op = mu(SIG, 1)
    x = SIG.monomial_element(SIG.even_generator(0))
    th = SIG.monomial_element(SIG.odd_generator(0))
    mixed = x.scale(2) + th.scale(3)
    assert op(mixed, mixed) == mixed * mixed


def test_canonical_tuples_sorted_within_bound():
    for arity in (1, 2, 3):
        for tup in canonical_tuples(SIG, arity, 3):
            degrees = sum(SIG.degree(m) for m in tup)
            assert degrees <= 3
            indices = [SIG.index_of(m) for m in tup]
            assert indices == sorted(indices)
            for a, b in zip(tup, tup[1:]):
                assert not (a == b and SIG.parity(a))


def test_mu_product_composition_rule():
    # mu_n insertion mu_m = C(n+m+1, m+1) mu_(n+m)
    for n in range(3):
        for m in range(3):
            lhs = nr_product(mu(SIG, n), mu(SIG, m))
            rhs = op_combination([(mu(SIG, n + m), comb(n + m + 1, m + 1))])
            assert ops_equal(lhs, rhs, 3)


def test_mu_bracket_structure_constants():
    for n in range(3):
        for m in range(3):
            factor = rat(
                (n - m) * factorial(n + m + 1),
                factorial(n + 1) * factorial(m + 1),
            )
            lhs = nr_bracket(mu(SIG, n), mu(SIG, m))
            rhs = op_combination([(mu(SIG, n + m), factor)])
            assert ops_equal(lhs, rhs, 3)


def test_mu_sym_equals_mu_on_commutative_signature():
    for n in range(3):
        assert ops_equal(mu_sym(SIG, n), mu(SIG, n), 3)


def test_mu_requires_commutative_signature():
    with pytest.raises(ValueError):
        mu(NC, 1)


def test_mu_sym_bracket_noncommutative():
    for n in range(3):
        for m in range(n):
            factor = rat(
                (n - m) * factorial(n + m + 1),
                factorial(n + 1) * factorial(m + 1),
            )
            lhs = nr_bracket(mu_sym(NC, n), mu_sym(NC, m))
            rhs = op_combination([(mu_sym(NC, n + m), factor)])
            assert ops_equal(lhs, rhs)


def test_rho_zero_acts_by_minus_degree():
    f = random_endo(SIG, 5, parity="even")
    omega = nr_product(mu(SIG, 1), f)  # degree 1
    assert ops_equal(rho(0, omega), op_combination([(omega, -1)]), 3)
    omega2 = nr_product(mu(SIG, 2), f)  # degree 2
    assert ops_equal(rho(0, omega2), op_combination([(omega2, -2)]), 3)


def test_rho_on_mu_zero_gives_scaled_mu():
    # [mu_n, mu_0] = n mu_n
    for n in range(1, 4):
        assert ops_equal(
            nr_bracket(mu(SIG, n), mu(SIG, 0)),
            op_combination([(mu(SIG, n), n)]),
            3,
        )


def _zero_op(sig, degree, parity=0):
    return MultiOp(sig, degree, parity, lambda _t: {})


def test_op_combination_checks_compatibility():
    with pytest.raises(ValueError):
        op_combination([(_zero_op(SIG, 1), 1), (_zero_op(SIG, 2), 1)])
    with pytest.raises(ValueError):
        op_combination([(_zero_op(SIG, 1, parity=0), 1),
                        (_zero_op(SIG, 1, parity=1), 1)])


def test_op_combination_of_one_unit_term_is_the_operator():
    f = mu(SIG, 1)
    assert op_combination([(f, 1)]) is f
    with pytest.raises(ValueError):
        op_combination([])


def test_first_mismatch_locates_difference():
    a = mu(SIG, 1)
    b = op_combination([(mu(SIG, 1), 2)])
    found = first_mismatch(a, b, 2)
    assert found is not None
    tup, va, vb = found
    assert vb == va.scale(2)
    assert is_zero_op(op_combination([(a, 1), (a, -1)]), 2)


def test_dump_operator_format():
    text = dump_operator(mu(SIG, 1), 2)
    lines = text.splitlines()
    assert lines
    assert all(" -> " in line and line.startswith("(") for line in lines)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_nr_bracket_superantisymmetry(seed):
    f = random_endo(SIG, seed, parity=seed % 2)
    g = random_endo(SIG, seed + 1, parity=(seed + 1) % 2)
    sign = -((-1) ** (f.parity * g.parity))
    lhs = nr_bracket(f, g)
    rhs = op_combination([(nr_bracket(g, f), sign)])
    assert ops_equal(lhs, rhs, 3)


def _general_op(sig, degree, seed, parity=1):
    """Operator with seeded integer values spread over every degree."""
    basis = sig.basis()
    parities = sig.basis_parities()

    def eval_basis(tup):
        monomials = tuple(basis[i] for i in tup)
        rng = random.Random(f"{seed}:{monomials}")
        want = (sum(parities[i] for i in tup) + parity) % 2
        values = {
            k: rng.randint(-3, 3)
            for k, p in enumerate(parities)
            if p == want and rng.random() < 0.3
        }
        return {k: c for k, c in values.items() if c}

    return MultiOp(sig, degree, parity, eval_basis)


def _reference_nr_product(f, g, tup, cases):
    """f ⊼ g on one tuple through multilinear calls; records insertion cases."""
    sig = f.signature
    parities = [sig.parity(v) for v in tup]
    out = sig.element()
    for perm in shuffles(g.arity, f.degree):
        inner = g(*(tup[i] for i in perm[: g.arity]))
        rest = [tup[i] for i in perm[g.arity :]]
        out = out + f(inner, *rest).scale(koszul_sign(perm, parities))
        for k in inner.terms:
            mono = sig.basis()[k]
            if sig.parity(mono) and mono in rest:
                cases.add("equals an odd argument")
            elif sig.parity(mono) and any(
                sig.parity(r) and sig.index_of(r) < k for r in rest
            ):
                cases.add("passes an odd argument")
            if sig.degree(mono) + sum(sig.degree(r) for r in rest) > (
                sig.degree_bound
            ):
                cases.add("beyond the degree bound")
    return out


@pytest.mark.parametrize("f_degree, g_degree", [(1, 1), (2, 0)])
def test_nr_product_insertion_matches_multilinear_call(f_degree, g_degree):
    f = _general_op(SIG, f_degree, 1)
    g = _general_op(SIG, g_degree, 2)
    product = nr_product(f, g)
    cases = set()
    for tup in canonical_tuples(SIG, 3):
        assert product.value(tup) == _reference_nr_product(f, g, tup, cases), tup
    assert cases == {
        "equals an odd argument",
        "passes an odd argument",
        "beyond the degree bound",
    }


def test_shuffle_plan_matches_koszul_sign():
    # every (block, complement) split and parity pattern up to arity 6
    for arity in range(1, 7):
        args = tuple(range(arity))
        for k in range(1, arity + 1):
            perms = shuffles(k, arity - k)
            for pattern in itertools.product((0, 1), repeat=arity):
                rows = _shuffle_plan(k, arity - k, pattern)
                assert len(rows) == len(perms)
                for perm, (block, rest_of, sign, passes) in zip(perms, rows):
                    rest = perm[k:]
                    assert block(args) == perm[:k] and rest_of(args) == rest
                    assert sign == koszul_sign(perm, pattern)
                    # an odd argument moved from the front past rest[:a]
                    moved = [1] + [pattern[q] for q in rest]
                    for a in range(len(rest) + 1):
                        order = (*range(1, a + 1), 0, *range(a + 1, len(moved)))
                        assert (-1) ** passes[a] == koszul_sign(order, moved)


@pytest.mark.parametrize("parity", [0, 1])
def test_rho_matches_generic_bracket(parity):
    # includes tuples one degree past the bound, which compositions reach
    nonzero = 0
    for degree in range(3):
        omega = _general_op(SIG, degree, 5 + degree, parity)
        for h in range(4):
            fast = rho(h, omega)
            generic = nr_bracket(mu_for(SIG, h), omega)
            for tup in canonical_index_tuples(SIG, fast.arity, SIG.degree_bound + 1):
                value = fast._canonical_value(tup)
                assert value == generic._canonical_value(tup), (degree, h, tup)
                nonzero += bool(value)
    assert nonzero > 1000


def test_rho_keeps_one_memo():
    # a fresh signature, so that the only operators on it are this test's
    sig = Signature(even=1, odd=2, degree_bound=4)
    omega = _general_op(sig, 1, 7)
    nodes = [rho(h, omega) for h in range(1, 4)]
    for node in nodes:
        for tup in canonical_index_tuples(sig, node.arity):
            node._canonical_value(tup)
    gc.collect()
    held = [op for op in gc.get_objects()
            if isinstance(op, MultiOp) and op.signature is sig and op._cache]
    assert sorted(map(id, held)) == sorted(map(id, [omega, *nodes]))


def test_call_one_monomial_per_slot_matches_general_path():
    op = _general_op(SIG, 2, 3)
    parities = SIG.basis_parities()
    for tup in canonical_tuples(SIG, 3):
        # a coefficient other than 1 takes the general multilinear expansion
        general = op(SIG.monomial_element(tup[0], 2), *tup[1:]).scale(rat(1, 2))
        assert op(*tup) == general
        assert op(*(SIG.monomial_element(m) for m in tup)) == general
        odd = [parities[SIG.index_of(m)] for m in tup]
        for perm in itertools.permutations(range(3)):
            permuted = op(*(tup[i] for i in perm))
            assert permuted == general.scale(koszul_sign(perm, odd))
