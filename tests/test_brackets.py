from __future__ import annotations

import gc
import itertools
import random
from math import factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import brackets, checks, multilinear
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
    _index_tuples,
    derivation_endo,
    first_mismatch,
    is_zero_op,
    linear_op,
    mu,
    multiplication_endo,
    nr_bracket,
    nr_product,
    odd_partial_endo,
    op_combination,
    ops_equal,
    random_endo,
    rho_combination,
)
from antibrackets.rational import rat
from antibrackets.superalgebra import AlgebraElement, Signature

from test_faults import _flip_first_block_sign
from test_superalgebra import koszul_sign

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
            for tup in _index_tuples(sig, n, sig.degree_bound + 2):
                value = op._canonical_value(tup)
                assert value == ref._canonical_value(tup), (n, tup)
                beyond += bool(value) and sum(
                    sig.degree(sig.basis()[i]) for i in tup) > sig.degree_bound
        assert beyond


@pytest.mark.parametrize("sig, N", [
    # every tuple of arity >= 4 repeats the unit
    (Signature(even=1, odd=1, degree_bound=2), 5),
    # even generators repeat too
    (Signature(even=2, odd=2, degree_bound=4), 5),
], ids=repr)
def test_routes_on_repeated_arguments_match_the_block_by_block_reference(sig, N):
    # the direct, bracket and exponential routes read one weighted block
    # per sub-multiset; the reference reads every block
    repeated = set()
    for seed, parity in ((31, "even"), (32, "odd")):
        f = random_endo(sig, seed, parity=parity, density=0.5)
        routes = {m: phi_hierarchy(f, N, method=m)
                  for m in ("direct", "bracket", "exponential")}
        for n in range(1, N + 1):
            ref = _reference_phi_direct_op(f, n)
            for tup in _index_tuples(sig, n):
                want = ref._canonical_value(tup)
                for method, ops in routes.items():
                    assert ops[n]._canonical_value(tup) == want, (method, tup)
                if want and len(set(tup)) < n:
                    repeated.add(any(a == b != 0 for a, b in zip(tup, tup[1:])))
    # tuples that repeat only the unit (basis index 0), and tuples that
    # repeat another entry
    assert repeated == {False, True}


def _shuffle_sum_on(f, tup, block, outer=None):
    """brackets._shuffle_terms of f, with weight 1, read by
    brackets._read_terms into a fresh dict, on the positions in ``block`` of
    tup's subset-product table, with that block's sub-blocks one per bit
    mask (the table of ``(1,) * len(tup)``), times basis[outer] if given.
    Each sub-block S is keyed here by its product and the product of
    block \\ S times basis[outer]; zeros dropped."""
    sig = f.signature
    parities = sig.basis_parities()
    pattern = tuple(parities[tup[q]] for q in range(len(tup)) if block >> q & 1)
    signs, _ = multilinear._shuffle_signs(pattern)
    rows, _ = multilinear._shuffle_shapes((1,) * len(tup))
    products = sig.subset_products(tup)
    coeffs, terms, acc = [0] * len(products), {}, {}
    brackets._shuffle_terms(coeffs, sig, products, rows[block][5], signs, 1,
                            outer)
    for sub, rest, _, _ in rows[block][5]:
        s, j = products[sub]
        others = [tup[q] for q in range(len(tup)) if rest >> q & 1]
        others += [] if outer is None else [outer]
        _, u = sig.mul_indices(others) if others else (1, None)
        if s and coeffs[sub]:
            terms[j, u] = terms.get((j, u), 0) + s * coeffs[sub]
    brackets._read_terms(acc, f, terms)
    return {t: c for t, c in acc.items() if c}


@pytest.mark.parametrize("sig", [
    SIG,
    Signature(even=2, odd=1, degree_bound=3, unital=False),
    Signature(even=0, odd=3, degree_bound=3),
], ids=repr)
def test_shuffle_sum_is_the_direct_value(sig):
    # f a random operator, and a bracket of two, whose values are not in
    # basis order; the rule also holds on a tuple out of canonical order
    # and on every block of a longer tuple's table
    f1 = random_endo(sig, 21, parity="even", density=0.5)
    f2 = random_endo(sig, 22, parity="odd", density=0.5)
    for f in (f1, nr_bracket(f1, f2)):
        ops = {n: phi_direct_op(f, n) for n in range(1, 5)}
        for n in range(1, 5):
            full = (1 << n) - 1
            for tup in _index_tuples(sig, n):
                value = ops[n]._canonical_value(tup)
                assert _shuffle_sum_on(f, tup, full) == value, (n, tup)
                sign, _ = sig.canonical_indices(tup[::-1])
                if sign:
                    flipped = _shuffle_sum_on(f, tup[::-1], full)
                    assert flipped == {t: sign * c for t, c in value.items()}
                for block in range(1, full):
                    sub = tuple(i for q, i in enumerate(tup) if block >> q & 1)
                    assert (_shuffle_sum_on(f, tup, block)
                            == ops[len(sub)]._canonical_value(sub)), (tup, block)


@pytest.mark.parametrize("sig", [
    SIG,
    Signature(even=2, odd=1, degree_bound=3, unital=False),
    Signature(even=0, odd=3, degree_bound=3),
], ids=repr)
def test_shuffle_sum_with_an_outer_index_is_the_value_times_it(sig):
    # every pair goes through the row of one index, the product of its
    # sub-block's complement and the outer index j; the product is checked
    # against AlgebraElement multiplication for every j, also where that
    # product dies
    degrees = sig.basis_degrees()
    f = nr_bracket(random_endo(sig, 23, parity="even", density=0.5),
                   random_endo(sig, 24, parity="odd", density=0.5))
    live = dead = 0
    for n in range(1, 4):
        op, full = phi_direct_op(f, n), (1 << n) - 1
        for tup in _index_tuples(sig, n):
            value = AlgebraElement(sig, op._canonical_value(tup))
            for j, d in enumerate(degrees):
                want = (value * AlgebraElement(sig, {j: 1})).terms
                got = _shuffle_sum_on(f, tup, full, outer=j)
                assert got == want, (tup, j)
                live += n > 1 and d > 0 and bool(want)
                dead += n > 1 and d > 0 and bool(value.terms) and not want
    assert live and dead


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


def _exp_rho_family_per_k(base, coefficients, max_degree):
    """exp_rho_family as a sum over the parts T_k of every degree, the top
    one too: one rho term per (k, n)."""
    coefficients = {n: c for n, c in coefficients.items() if c}
    lcm_den = lcm(*(int(rat(c).denominator) for c in coefficients.values()))
    weights = {n: int(c * lcm_den) for n, c in coefficients.items()}
    levels = {base.degree: {0: base}}
    term = {base.degree: base}
    k = 1
    while term and min(term) < max_degree:
        pieces = {}
        for d, op in term.items():
            for n, w in weights.items():
                if d + n <= max_degree:
                    pieces.setdefault(d + n, []).append((n, op, w))
        term = {d: rho_combination(terms) for d, terms in pieces.items()}
        for d, op in term.items():
            levels.setdefault(d, {})[k] = op
        k += 1
    return {
        d: op_combination((op, rat(1, factorial(k) * lcm_den**k))
                          for k, op in parts.items())
        for d, parts in levels.items()
    }


@pytest.mark.parametrize("coefficients, base_degree, max_degree, top", [
    ({2: rat(3, 2)}, 0, 4, 4),  # a gap at n = 1
    ({1: rat(-1, 2), 3: rat(2, 3)}, 0, 4, 4),
    ({1: rat(1, 3), 2: rat(-5, 4)}, 1, 3, 3),  # a base of degree 1
    ({1: rat(1, 2), 2: 2}, 1, 1, 1),  # max_degree == base.degree
    ({2: rat(1, 2)}, 0, 3, 2),  # no n reaches degree 3
])
def test_exp_rho_family_top_degree_matches_the_sum_over_k(
        coefficients, base_degree, max_degree, top):
    f = random_endo(SIG, 14, parity="odd")
    base = f if base_degree == 0 else phi_direct_op(f, base_degree + 1)
    family = exp_rho_family(base, coefficients, max_degree)
    reference = _exp_rho_family_per_k(base, coefficients, max_degree)
    assert set(family) == set(reference) and max(family) == top
    for d, op in family.items():
        assert first_mismatch(op, reference[d]) is None, d
    assert not is_zero_op(family[top])


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_every_route_gives_ints_on_an_integer_operator(parity):
    f = random_endo(SIG, 31, parity=parity, density=1.0)
    for method in METHODS:
        for n, op in phi_hierarchy(f, 5, method=method).items():
            for tup in _index_tuples(SIG, n):
                values = op._canonical_value(tup).values()
                assert all(type(v) is int for v in values), (method, n, tup)


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


@pytest.mark.parametrize("method, nodes", [
    # f, and one rho node per level n = 2..5, which divides its own values
    ("bracket", 1 + 4),
    # f, one T_k per 1 <= k <= degree <= 3, and the components of degree
    # 1..3; degree 4 has no T_k parts but one G_n per n = 1..4 (each an
    # integer combination of the T_j of degree 4 - n) and one rho node,
    # which divides its own values and is the component
    ("exponential", 1 + 6 + 3 + 1 + 4),
])
def test_rho_routes_keep_one_memo_per_level(method, nodes):
    # a fresh signature, so that the only operators on it are this test's
    sig = Signature(even=1, odd=1, degree_bound=3)
    f = random_endo(sig, 12, parity="odd")
    hierarchy = phi_hierarchy(f, 5, method=method)
    for n, op in hierarchy.items():
        for tup in _index_tuples(sig, n):
            op._canonical_value(tup)
    gc.collect()
    held = [op for op in gc.get_objects()
            if isinstance(op, MultiOp) and op.signature is sig and op._cache]
    assert len(held) == nodes
    assert {id(op) for op in hierarchy.values()} <= set(map(id, held))


def test_inversion_formula_random_tuples():
    rng = random.Random(0)
    basis = [m for m in SIG.basis() if SIG.degree(m) >= 1]
    for seed, parity in ((1, "even"), (2, "odd")):
        f = random_endo(SIG, seed, parity=parity)
        for n in range(1, 5):
            for _ in range(3):
                args = [rng.choice(basis) for _ in range(n)]
                assert inversion_check(f, n, args)


def test_inversion_formula_at_arities_five_and_six():
    # as the pointwise benchmark draws them: non-unit monomials whose
    # degrees sum to at most D, and repeated degree-1 arguments
    sig = Signature(even=2, odd=2, degree_bound=6)
    rng = random.Random(3)
    basis = [m for m in sig.basis() if sig.degree(m) >= 1]
    for seed, parity in ((1, "even"), (2, "odd")):
        f = random_endo(sig, seed, parity=parity)
        for n in (5, 6):
            for _ in range(3):
                budget, args = sig.degree_bound, []
                for slot in range(n):
                    fits = [m for m in basis
                            if sig.degree(m) <= budget - (n - slot - 1)]
                    args.append(rng.choice(fits))
                    budget -= sig.degree(args[-1])
                assert inversion_check(f, n, args), args
            generators = [sig.even_generator(0), sig.even_generator(1),
                          sig.odd_generator(0), sig.odd_generator(1)]
            assert inversion_check(f, n, (generators * 2)[:n])


def test_inversion_formula_on_values_out_of_index_order():
    # a bracket's images are accumulated in no index order, and the check
    # maps each one through a product row as it is
    f = nr_bracket(random_endo(SIG, 41, parity="even", density=0.5),
                   random_endo(SIG, 42, parity="odd", density=0.5))
    images = [list(f._canonical_value((i,))) for i in range(len(SIG.basis()))]
    assert any(image != sorted(image) for image in images)
    rng = random.Random(1)
    basis = SIG.basis()
    for n in range(1, 6):
        for _ in range(4):
            args = [rng.choice(basis) for _ in range(n)]
            assert inversion_check(f, n, args), args


def test_inversion_check_fails_on_a_flipped_block_sign(monkeypatch):
    # Phi^3(x, x, x) = f(x^3) - 3 f(x^2) x + 3 f(x) x^2 = 0 for f = d/dx.
    # One sign table serves a shuffle's block and the sub-blocks of Phi^3,
    # so flipping the sign of the block {first argument} changes both
    # Phi^3 and the term Phi^1(x) x^2 by -2 x^2: they do not cancel.  (The
    # fault leaves tables of two parities alone, so n = 2 still holds.)
    f = derivation_endo(SIG)
    x = SIG.even_generator(0)
    assert inversion_check(f, 3, [x, x, x])
    _flip_first_block_sign(monkeypatch)
    assert not inversion_check(f, 3, [x, x, x])
    assert inversion_check(f, 2, [x, x])


def _reference_inversion_check(f, n, args):
    """inversion_check in the order of a check that reads f group by group:
    the lhs and each nonzero group's shuffle sum read f's images at once,
    straight into lhs - rhs."""
    sig = f.signature
    full = (1 << n) - 1
    tup = tuple(sig.index_of(a) for a in args)
    patterns = [()]
    for a in args:
        patterns += [pattern + (sig.parity(a),) for pattern in patterns]
    signs = [brackets._shuffle_signs(pattern)[0] for pattern in patterns]
    rows, _ = multilinear._shuffle_shapes((1,) * n)
    diff = {}
    products = sig.subset_products(tup)

    def read(block, weight, outer):
        acc, terms = [0] * (full + 1), {}
        brackets._shuffle_terms(acc, sig, products, rows[block][5],
                                signs[block], weight, outer)
        brackets._formal_terms(terms, products, rows[full][5], acc)
        brackets._read_terms(diff, f, terms)

    s, j = products[full]
    if s:
        brackets._read_terms(diff, f, {(j, None): s})
    read(full, -1, None)
    groups = {}
    for block in range(1, full):
        r, tail = products[full ^ block]
        if r:
            group = groups.setdefault((rows[block][2](tup), tail), [block, 0])
            group[1] -= signs[full][block] * r
    for (_, tail), (block, c) in groups.items():
        if c:
            read(block, c, tail)
    return not any(diff.values())


def test_inversion_verdict_does_not_depend_on_the_summation_order(monkeypatch):
    # summing the whole check's formal terms before f is read gives the
    # verdict of reading f group by group, on correct checks and, under a
    # flipped block sign, on failing ones; arguments include the unit and
    # repeated monomials
    shapes = [Signature(1, 1, 3), Signature(2, 1, 4),
              Signature(0, 3, 3), Signature(2, 0, 4, unital=False)]
    rng = random.Random(11)
    cases = []
    for sig in shapes:
        basis = sig.basis()
        for seed, parity in ((1, "even"), (2, "odd")):
            f = random_endo(sig, seed, parity=parity, density=0.5)
            for n in range(1, 5):
                for _ in range(6):
                    args = [rng.choice(basis) for _ in range(n)]
                    if n > 1 and rng.random() < 0.5:
                        args[-1] = args[0]
                    cases.append((f, n, args))
    assert any(len(set(args)) < len(args) for _, _, args in cases)
    assert any(f.signature.unital and f.signature.unit() in args
               for f, _, args in cases)

    def verdicts(check):
        return [check(f, n, args) for f, n, args in cases]

    assert verdicts(inversion_check) == verdicts(_reference_inversion_check)
    assert all(verdicts(inversion_check))
    _flip_first_block_sign(monkeypatch)
    faulted = verdicts(inversion_check)
    assert faulted == verdicts(_reference_inversion_check)
    assert not all(faulted) and any(faulted)


def test_inversion_check_fails_on_a_flipped_complement_product(monkeypatch):
    # The product th x of the last two arguments is the outer factor of the
    # block {first argument} and the complement of that sub-block in
    # Phi^3(x, th, x); flipping its sign in the subset-product table makes
    # the check false.  (On (x, x, x) the two changes of that entry cancel.)
    sig = Signature(even=1, odd=1, degree_bound=3)
    f = derivation_endo(sig)
    args = [sig.even_generator(0), sig.odd_generator(0), sig.even_generator(0)]
    assert inversion_check(f, 3, args)
    original = Signature.subset_products
    complement = 0b110
    assert original(sig, [sig.index_of(m) for m in args])[complement][0]

    def flipped(self, indices):
        table = original(self, indices)
        s, k = table[complement]
        return table[:complement] + [(-s, k)] + table[complement + 1:]

    monkeypatch.setattr(Signature, "subset_products", flipped)
    assert not inversion_check(f, 3, args)


def test_inversion_check_sums_once_per_surviving_block(monkeypatch):
    # one shuffle sum goes into the check's formal terms for each block whose
    # complement's product survives, and one for the whole block, also where
    # blocks share their indices and their complement product
    sig = Signature(even=1, odd=1, degree_bound=5)
    x, th = sig.even_generator(0), sig.odd_generator(0)
    args = [x, x, th, x, th]
    n = len(args)
    indices = [sig.index_of(m) for m in args]
    keys, masks = set(), 0
    for size in range(1, n):
        for block in itertools.combinations(range(n), size):
            rest = [indices[q] for q in range(n) if q not in block]
            r, tail = sig.mul_indices(rest)
            if r:
                masks += 1
                keys.add((tuple(indices[q] for q in block), tail))
    assert 0 < len(keys) < masks < 2**n - 2
    calls = []
    original = brackets._shuffle_terms

    def counted(*a):
        calls.append(a)
        return original(*a)

    monkeypatch.setattr(brackets, "_shuffle_terms", counted)
    for seed, parity in ((1, "even"), (2, "odd")):
        calls.clear()
        assert inversion_check(random_endo(sig, seed, parity=parity), n, args)
        assert len(calls) == 1 + masks


def test_associative_bracket_hierarchy_builds_no_product_table(monkeypatch):
    # on an associative signature the rho routes fall back to nr_bracket,
    # and nr_product reads only the signs and shapes of a tuple's plan
    sig = Signature(even=2, odd=1, degree_bound=3, commutative=False)
    original, calls = Signature.subset_products, []
    monkeypatch.setattr(Signature, "subset_products",
                        lambda self, indices: calls.append(indices)
                        or original(self, indices))
    hierarchy = phi_hierarchy(random_endo(sig, 7, parity="odd", density=0.5), 4)
    values = [op._canonical_value(tup) for n, op in hierarchy.items()
              for tup in _index_tuples(sig, n)]
    assert any(values)
    assert sig._plans and all(plan[0] is None for plan in sig._plans.values())
    assert calls == []


def test_only_failing_inversion_checks_read_images(monkeypatch):
    # a correct check's formal terms all cancel, so it reads no image of f
    # and leaves f's memo empty; a failing check reads images from it
    f, d = random_endo(SIG, 5, parity="odd"), derivation_endo(SIG)
    x, th = SIG.even_generator(0), SIG.odd_generator(0)
    assert inversion_check(f, 2, [x, th])
    assert inversion_check(f, 3, [x, th, x])
    assert inversion_check(d, 3, [x, x, x])
    assert f._cache == d._cache == {}
    _flip_first_block_sign(monkeypatch)
    assert not inversion_check(d, 3, [x, x, x])
    assert d._cache


def test_read_operators_are_in_no_reference_cycle():
    # with the cyclic collector off, an operator whose hierarchy was built
    # and read, or whose images an inversion check read, is freed as soon
    # as its last reference goes
    sig = Signature(even=1, odd=1, degree_bound=3)
    x, th = sig.even_generator(0), sig.odd_generator(0)

    def live():
        return sum(isinstance(o, MultiOp) for o in gc.get_objects())

    def read_hierarchy(seed):
        for op in phi_hierarchy(random_endo(sig, seed), 4).values():
            is_zero_op(op)  # reads every value on the comparison domain

    gc.collect()
    gc.disable()
    try:
        before = live()
        for seed in range(20):
            read_hierarchy(seed)
        assert live() == before
        for seed in range(20, 40):
            assert inversion_check(random_endo(sig, seed, parity="odd"), 3,
                                   [x, th, x])
        assert live() == before
    finally:
        gc.enable()


def test_inversion_check_builds_no_direct_operator(monkeypatch):
    def refuse(f, n):
        raise AssertionError("phi_direct_op called")

    monkeypatch.setattr(brackets, "phi_direct_op", refuse)
    basis = [m for m in SIG.basis() if SIG.degree(m) >= 1]
    f = random_endo(SIG, 3, parity="odd")
    for n in range(1, 4):
        for args in itertools.product(basis, repeat=n):
            assert inversion_check(f, n, list(args)), args


def test_inversion_rejects_a_wrong_argument_count():
    f = random_endo(SIG, 1, parity="even")
    x = SIG.even_generator(0)
    for args in ([x], [x, x, x]):
        with pytest.raises(ValueError, match="argument count must equal n"):
            inversion_check(f, 2, args)
    # a third argument is refused, and no later one is read
    read = []

    def arguments():
        for i in range(20):
            read.append(i)
            yield x

    with pytest.raises(ValueError, match="argument count must equal n"):
        inversion_check(f, 2, arguments())
    assert read == [0, 1, 2]


def test_inversion_requires_commutative():
    f = random_endo(NC, 1, parity="even")
    x = NC.even_generator(0)
    with pytest.raises(ValueError, match="commutative"):
        inversion_check(f, 2, [x, x])


def test_inversion_rejects_n_below_one():
    f = random_endo(SIG, 1, parity="even")
    with pytest.raises(ValueError, match="n must be >= 1"):
        inversion_check(f, 0, [])


def test_inversion_check_reads_monomial_arguments_by_index(monkeypatch):
    # a monomial argument is its basis index: the verdicts of the check
    # that reads f group by group, on correct checks and under a flipped
    # block sign, with no AlgebraElement built
    sig = Signature(even=2, odd=2, degree_bound=5)
    rng = random.Random(5)
    basis = sig.basis()
    cases = [(random_endo(sig, seed, parity=parity), n,
              [rng.choice(basis) for _ in range(n)])
             for seed, parity in ((1, "even"), (2, "odd"))
             for n in range(1, 5) for _ in range(4)]
    cases.append((cases[0][0], 3, [sig.unit(), *basis[1:3]]))
    built = []
    init = AlgebraElement.__init__

    def counting(self, signature, terms):
        built.append(terms)
        init(self, signature, terms)

    def verdicts(check):
        return [check(f, n, args) for f, n, args in cases]

    seen = []
    for fault in (None, _flip_first_block_sign):
        if fault:
            fault(monkeypatch)
        monkeypatch.setattr(AlgebraElement, "__init__", counting)
        built.clear()
        as_indices = verdicts(inversion_check)
        assert built == []
        monkeypatch.setattr(AlgebraElement, "__init__", init)
        assert as_indices == verdicts(_reference_inversion_check)
        seen.append(as_indices)
    assert all(seen[0]) and any(seen[1]) and not all(seen[1])


def test_inversion_check_refuses_monomial_arguments_as_their_elements():
    # the ValueErrors of monomial arguments come in the order the arguments
    # are read: a non-basis monomial where it occurs, among the first n + 1,
    # and a wrong count after them; with the monomials passed as their
    # elements, the first element is refused as no basis monomial
    f = random_endo(SIG, 1, parity="even")
    x, th = SIG.even_generator(0), SIG.odd_generator(0)
    not_basis = ((5,), ())

    def missing(m):
        with pytest.raises(ValueError) as raised:
            SIG.index_of(m)
        return str(raised.value)

    cases = [
        (2, [x, x, x], "argument count must equal n"),
        (2, [th], "argument count must equal n"),
        (1, [x, not_basis], missing(not_basis)),
        (2, [x, not_basis, x], missing(not_basis)),
        (2, [x, x, not_basis], missing(not_basis)),
        (1, [x, x, not_basis], "argument count must equal n"),
    ]
    basis = SIG.basis()

    def error(n, args):
        with pytest.raises(ValueError) as raised:
            inversion_check(f, n, args)
        return str(raised.value)

    for n, args, message in cases:
        assert error(n, args) == message
        elements = [SIG.monomial_element(a) if a in basis else a for a in args]
        assert error(n, elements) == missing(elements[0])
        assert "is not a basis monomial" in missing(elements[0])


def test_inversion_check_refuses_element_arguments():
    # elements of f's signature, of one or several terms, homogeneous or
    # not, and elements of another signature are refused with the
    # ValueError of Signature.index_of
    f = random_endo(SIG, 1, parity="even")
    x, th = SIG.even_generator(0), SIG.odd_generator(0)
    other = Signature(even=2, odd=2, degree_bound=5)
    elements = [
        SIG.monomial_element(x),
        SIG.monomial_element(x) + SIG.monomial_element(x) * SIG.monomial_element(x),
        SIG.monomial_element(x) + SIG.monomial_element(th),
        SIG.element({}),
        other.monomial_element(other.odd_generator(0)),
    ]
    for element in elements:
        for n, args in ((1, [element]), (2, [x, element]), (2, [element, th])):
            with pytest.raises(ValueError, match="is not a basis monomial"):
                inversion_check(f, n, args)


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


def test_jacobi_builds_each_hierarchy_once(monkeypatch):
    # three parity pairs of f (seed) and g (seed + 1) share the odd f and
    # the odd g: four operator hierarchies and three bracket ones
    drawn, built = [], []

    def draw(sig, seed, parity):
        drawn.append((seed, parity))
        return random_endo(sig, seed, parity=parity)

    def hierarchy(op, N):
        built.append(op)
        return phi_hierarchy(op, N)

    monkeypatch.setattr(checks, "random_endo", draw)
    monkeypatch.setattr(checks, "phi_hierarchy", hierarchy)
    assert len(_run_registry(SIG, 4, 21, ["jacobi"])) == 9
    assert sorted(drawn) == [(21, "even"), (21, "odd"), (22, "even"), (22, "odd")]
    assert len(built) == 7 and len(set(map(id, built))) == 7


def test_a_wrong_universal_coefficient_fails_its_standard_forms(monkeypatch):
    # c_2^3 one too large: the three standard forms of degree 4 return a
    # mismatch triple, and every other universal entry holds
    series_of = checks.coefficient_series

    def perturbed(N):
        series = series_of(N)
        series[3] = (series[3][0], series[3][1] + 1, *series[3][2:])
        return series

    monkeypatch.setattr(checks, "coefficient_series", perturbed)
    sig = Signature(even=2, odd=2, degree_bound=4)
    failed = {}
    for _, label, thunk in registry(sig, 4, 1, ["universal"]):
        if (bad := thunk()) is not None:
            failed[label] = bad
    assert list(failed) == [f"standard form degree 4 seed={seed}"
                            for seed in (1, 2, 3)]
    for bad in failed.values():
        args, lhs, rhs = bad
        assert len(args) == 4 and lhs != rhs


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
    # shapes are keyed by run lengths, signs by parity pattern
    assert len(multilinear._shuffle_shapes((2, 1))[0]) == 6
    for cached in (multilinear._shuffle_shapes, multilinear._shuffle_signs,
                   brackets._block_signs):
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
