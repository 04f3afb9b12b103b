from __future__ import annotations

import gc
import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import multilinear
from antibrackets.multilinear import (
    MultiOp,
    _index_tuples,
    _plan,
    _runs,
    _shuffle_shapes,
    _shuffle_signs,
    canonical_tuples,
    first_mismatch,
    is_zero_op,
    linear_op,
    mu,
    nr_bracket,
    nr_product,
    op_combination,
    ops_equal,
    random_endo,
    rho_combination,
)
from antibrackets.rational import Rational, rat
from antibrackets.superalgebra import AlgebraElement, Signature, koszul_sign

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


def _symmetrized_product(sig, n):
    """Reference mu_n: the Koszul-signed ordered products over all argument
    orders, divided by (n+1)!, as rationals."""
    parities = sig.basis_parities()

    def eval_basis(tup):
        odd = [parities[i] for i in tup]
        acc = {}
        for order in itertools.permutations(range(n + 1)):
            sign, k = sig.mul_indices([tup[i] for i in order])
            if sign:
                acc[k] = acc.get(k, 0) + sign * koszul_sign(order, odd)
        return {k: rat(v, factorial(n + 1)) for k, v in acc.items() if v}

    return MultiOp(sig, n, 0, eval_basis)


@pytest.mark.parametrize("sig", [SIG, NC], ids=["commutative", "associative"])
def test_mu_is_the_symmetrized_product(sig):
    for n in range(4):
        op, reference = mu(sig, n), _symmetrized_product(sig, n)
        assert ops_equal(op, reference)
        # one division per value: an int wherever it is exact
        for tup in _index_tuples(sig, n + 1):
            for k, c in op._canonical_value(tup).items():
                exact = reference._canonical_value(tup)[k].denominator == 1
                assert (type(c) is int) == exact, (n, tup)


@pytest.mark.parametrize("sig", [
    SIG, NC, Signature(even=1, odd=2, degree_bound=3, unital=False),
], ids=["commutative", "associative", "non-unital"])
def test_mu_zero_is_the_identity(sig):
    size = len(sig.basis())
    identity = linear_op(sig, {i: {i: 1} for i in range(size)}, 0)
    zero = mu(sig, 0)
    assert ops_equal(zero, identity)
    assert all(type(c) is int
               for i in range(size) for c in zero._canonical_value((i,)).values())


def test_mu_sym_bracket_noncommutative():
    for n in range(3):
        for m in range(n):
            factor = rat(
                (n - m) * factorial(n + m + 1),
                factorial(n + 1) * factorial(m + 1),
            )
            lhs = nr_bracket(mu(NC, n), mu(NC, m))
            rhs = op_combination([(mu(NC, n + m), factor)])
            assert ops_equal(lhs, rhs)


def test_rho_zero_acts_by_minus_degree():
    f = random_endo(SIG, 5, parity="even")
    omega = nr_product(mu(SIG, 1), f)  # degree 1
    assert ops_equal(rho_combination([(0, omega, 1)]),
                     op_combination([(omega, -1)]), 3)
    omega2 = nr_product(mu(SIG, 2), f)  # degree 2
    assert ops_equal(rho_combination([(0, omega2, 1)]),
                     op_combination([(omega2, -2)]), 3)


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


def test_op_combination_with_rational_weights():
    f, g = _general_op(SIG, 1, 1), _general_op(SIG, 1, 2)
    half = MultiOp(SIG, 1, 1, lambda t: {k: rat(v, 2)
                                         for k, v in f._canonical_value(t).items()})
    weighted = [(f, rat(1, 6)), (g, rat(-3, 4)), (half, 2)]
    combined = op_combination(weighted)
    ints = op_combination([(f, 3), (g, -2)])
    cancelled = op_combination([(f, rat(1, 3)), (g, 1), (f, rat(-1, 3))])
    seen = 0
    for tup in _index_tuples(SIG, 2, SIG.degree_bound + 1):
        expected = {}
        for op, c in weighted:
            for k, v in op._canonical_value(tup).items():
                expected[k] = expected.get(k, 0) + c * v
        assert combined._canonical_value(tup) == {
            k: v for k, v in expected.items() if v}, tup
        assert all(type(v) is int for v in ints._canonical_value(tup).values())
        assert cancelled._canonical_value(tup) == g._canonical_value(tup), tup
        seen += bool(expected)
    assert seen > 50
    assert op_combination([(f, 1)]) is f


def test_op_combination_quotients_are_ints_when_exact():
    f = _general_op(SIG, 1, 1)
    halves = op_combination([(f, rat(1, 2))])
    kinds = set()
    for tup in _index_tuples(SIG, 2):
        for k, v in halves._canonical_value(tup).items():
            c = f._canonical_value(tup)[k]
            assert v == rat(c, 2)
            assert type(v) is (int if c % 2 == 0 else Rational), (tup, c, v)
            kinds.add(type(v))
    assert kinds == {int, Rational}


def test_op_combination_divides_inexact_sums_of_integral_operators():
    # weights 1/2 and 1/3 on operators with int entries sum to (3a + 2b)/6,
    # which is a rational wherever 6 does not divide it; no registry suite
    # reaches such a division, as its combinations divide exactly
    f, g = random_endo(SIG, 1), random_endo(SIG, 2)
    combined = op_combination([(f, rat(1, 2)), (g, rat(1, 3))])
    rational = 0
    for (i,) in _index_tuples(SIG, 1):
        a, b = f._canonical_value((i,)), g._canonical_value((i,))
        assert all(type(v) is int for v in [*a.values(), *b.values()])
        expected = {k: rat(a.get(k, 0), 2) + rat(b.get(k, 0), 3)
                    for k in a.keys() | b.keys()}
        assert combined._canonical_value((i,)) == {
            k: v for k, v in expected.items() if v}, i
        rational += sum(v.denominator > 1 for v in expected.values())
    assert rational > 20


def test_first_mismatch_locates_difference():
    a = mu(SIG, 1)
    b = op_combination([(mu(SIG, 1), 2)])
    found = first_mismatch(a, b, 2)
    assert found is not None
    tup, va, vb = found
    assert vb == va.scale(2)
    assert is_zero_op(op_combination([(a, 1), (a, -1)]), 2)


def test_canonical_index_tuples_are_built_once_per_signature():
    sig = Signature(even=1, odd=2, degree_bound=4)
    a, b = mu(sig, 1), op_combination([(mu(sig, 1), 2)])
    assert first_mismatch(a, b, 3) is not None
    assert is_zero_op(op_combination([(a, 1), (a, -1)]))
    assert set(sig._tuples) == {(2, 3), (2, 4)}
    kept = dict(sig._tuples)
    # later comparisons and the public lists read the kept lists
    assert first_mismatch(a, b, 3) is not None and first_mismatch(a, a) is None
    assert not is_zero_op(b, 3)
    assert _index_tuples(sig, 2, 3) is kept[2, 3]
    assert canonical_tuples(sig, 2) == [tuple(sig.basis()[i] for i in tup)
                                         for tup in kept[2, 4]]
    assert sig._tuples.keys() == kept.keys()
    assert all(sig._tuples[key] is kept[key] for key in kept)
    # every caller of the public list gets a fresh one
    first = canonical_tuples(sig, 2, 3)
    assert first is not canonical_tuples(sig, 2, 3)
    expected = list(first)
    first.clear()
    assert canonical_tuples(sig, 2, 3) == expected
    assert len(kept[2, 3]) == len(expected)


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


def shuffles(k: int, m: int):
    """All C(k+m, k) permutations increasing on the first k and last m slots,
    as tuples of 0-based indices: position i holds sigma(i)."""
    everything = range(k + m)
    return [first + tuple(v for v in everything if v not in first)
            for first in itertools.combinations(everything, k)]


@given(st.integers(0, 4), st.integers(0, 4))
def test_shuffle_count(k, m):
    perms = shuffles(k, m)
    assert len(perms) == comb(k + m, k)
    for perm in perms:
        assert sorted(perm) == list(range(k + m))
        assert list(perm[:k]) == sorted(perm[:k])
        assert list(perm[k:]) == sorted(perm[k:])


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


@pytest.mark.parametrize("sig, degrees", [
    # every tuple of arity >= 4 repeats the unit
    (Signature(even=1, odd=1, degree_bound=2), [(3, 1), (1, 3), (2, 2), (0, 4)]),
    (Signature(even=2, odd=2, degree_bound=4), [(2, 1), (1, 2)]),
], ids=repr)
def test_nr_product_on_repeated_arguments_matches_every_shuffle(sig, degrees):
    # one weighted block per sub-multiset against every shuffle one by one
    repeated = 0
    for f_degree, g_degree in degrees:
        f = _general_op(sig, f_degree, 8)
        g = _general_op(sig, g_degree, 9, parity=0)
        product = nr_product(f, g)
        for tup in canonical_tuples(sig, f_degree + g_degree + 1):
            value = product.value(tup)
            assert value == _reference_nr_product(f, g, tup, set()), tup
            repeated += bool(value.terms) and len(set(tup)) < len(tup)
    assert repeated >= 10


def test_shuffle_tables_match_shuffles_and_koszul_sign():
    # every (block, complement) split and parity pattern up to arity 6, on
    # the table of n distinct arguments
    for arity in range(1, 7):
        args = tuple(range(arity))
        rows, by_size = _shuffle_shapes((1,) * arity)
        assert [row[0] for row in rows] == list(range(1 << arity))
        assert {row[1] for row in rows} == {1}
        splits = []
        for k in range(arity + 1):
            perms = shuffles(k, arity - k)
            masks = [sum(1 << q for q in perm[:k]) for perm in perms]
            assert {row[0] for row in by_size[k]} == set(masks)
            assert len(by_size[k]) == len(perms)
            splits += zip(perms, masks)
        for perm, mask in splits:
            _, _, block, rest_of, _, subs = rows[mask]
            positions = block(args)
            assert (positions, rest_of(args)) == (perm[:len(positions)],
                                                  perm[len(positions):])
            # the sub-block of rank r holds the block's positions picked by
            # r's bits, and carries (-1)^(|B|-|S|)
            assert sorted(rank for _, _, rank, _ in subs) == list(
                range(1, 1 << len(positions)))
            for sub, rest, rank, factor in subs:
                picked = [q for b, q in enumerate(positions) if rank >> b & 1]
                assert [q for q in args if sub >> q & 1] == picked
                assert rest == mask ^ sub
                assert factor == (-1) ** (len(positions) - len(picked))
        for pattern in itertools.product((0, 1), repeat=arity):
            signs, odd = _shuffle_signs(pattern)
            assert odd == sum(1 << q for q in args if pattern[q])
            for perm, mask in splits:
                rest = perm[mask.bit_count():]
                assert signs[mask] == koszul_sign(perm, pattern)
                # an odd argument moved from the front past rest[:a]
                moved = [1] + [pattern[q] for q in rest]
                for a, prefix in enumerate(rows[mask][4]):
                    order = (*range(1, a + 1), 0, *range(a + 1, len(moved)))
                    assert prefix == sum(1 << q for q in rest[:a])
                    assert ((-1) ** (odd & prefix).bit_count()
                            == koszul_sign(order, moved))


def _reference_shuffle_signs(pattern):
    """The definition of a sign table, one block at a time: each odd block
    argument passes the odd complement arguments before it."""
    odd = sum(p << q for q, p in enumerate(pattern))
    signs = [(-1) ** sum((odd & ~block & ((1 << q) - 1)).bit_count()
                         for q in range(len(pattern)) if (odd & block) >> q & 1)
             for block in range(1 << len(pattern))]
    return signs, odd


def test_shuffle_signs_match_their_definition():
    # every parity pattern of length 0-8, beyond the arities of the
    # shuffle test above
    for arity in range(9):
        for pattern in itertools.product((0, 1), repeat=arity):
            assert _shuffle_signs(pattern) == _reference_shuffle_signs(pattern)


def _compositions(n):
    """Every tuple of positive run lengths summing to n."""
    if n == 0:
        return [()]
    return [(m, *rest) for m in range(1, n + 1) for rest in _compositions(n - m)]


def _tuples_with_runs(sig, runs):
    """Sorted index tuples of ``sig`` whose equal entries come in ``runs``:
    each longer run an even index, the single entries all odd or all even."""
    parities = sig.basis_parities()
    for single in (1, 0):
        tup = []
        for m in runs:
            want = single if m == 1 else 0
            start = tup[-1] + 1 if tup else 0
            tup += [next(i for i in range(start, len(parities))
                         if parities[i] == want)] * m
        yield tuple(tup)


def test_run_tables_keep_one_block_per_class_of_the_all_ones_table():
    # a class is the masks of the all-ones table that pick the same
    # sub-multiset; the degree bound keeps most products of six alive
    sig = Signature(even=2, odd=3, degree_bound=8)
    parities = sig.basis_parities()
    for arity in range(1, 7):
        ones, _ = _shuffle_shapes((1,) * arity)
        for runs in _compositions(arity):
            rows, by_size = _shuffle_shapes(runs)
            assert [row for k in by_size for row in k] == sorted(
                rows, key=lambda row: row[0].bit_count())
            for tup in _tuples_with_runs(sig, runs):
                assert _runs(tup) == runs
                products = sig.subset_products(tup)
                signs, odd = _shuffle_signs(tuple(parities[i] for i in tup))
                classes = {}
                for row in ones:
                    classes.setdefault(row[2](tup), []).append(row)
                assert len(rows) == len(classes)
                for mask, weight, block, rest_of, prefixes, subs in rows:
                    members = classes[block(tup)]
                    assert weight == len(members) and mask in {m[0] for m in members}
                    passed = [(odd & p).bit_count() & 1 for p in prefixes]
                    for other, _, _, other_rest, other_prefixes, _ in members:
                        assert other_rest(tup) == rest_of(tup)
                        assert products[other] == products[mask]
                        assert signs[other] == signs[mask]
                        assert [(odd & p).bit_count() & 1
                                for p in other_prefixes] == passed
                    # sub-blocks: the same, within the block's own signs
                    inner, _ = _shuffle_signs(
                        tuple(parities[i] for i in block(tup)))
                    sub_classes = {}
                    for sub, rest, rank, factor in ones[mask][5]:
                        picked = tuple(tup[q] for q in range(arity) if sub >> q & 1)
                        sub_classes.setdefault(picked, []).append(
                            (sub, rest, rank, factor))
                    assert len(subs) == len(sub_classes)
                    for sub, rest, rank, factor in subs:
                        picked = tuple(tup[q] for q in range(arity) if sub >> q & 1)
                        same = sub_classes[picked]
                        assert (sub, rest, rank) in {m[:3] for m in same}
                        assert factor == sum(m[3] for m in same)
                        assert abs(factor) == len(same)
                        for other, other_rest, other_rank, _ in same:
                            assert products[other] == products[sub]
                            assert products[other_rest] == products[rest]
                            assert inner[other_rank] == inner[rank]


def _generic_mu(sig, n):
    """mu_n as a node outside ``sig._mu``, read from its memo, never off a
    product table."""
    return multilinear._mu_node(sig, n)


@pytest.mark.parametrize("parity", [0, 1])
def test_rho_matches_generic_bracket(parity):
    # against mu_h read from its memo: the bracket, and its outer half
    # mu_h ⊼ omega alone, on tuples one degree past the bound, which
    # compositions reach; odd operators vanish without an odd generator, so
    # that one runs even
    for sig in (SIG, Signature(even=1, odd=2, degree_bound=4, unital=False),
                Signature(even=2, odd=0, degree_bound=5)):
        nonzero = 0
        for degree in range(3):
            omega = _general_op(sig, degree, 5 + degree, parity if sig.odd else 0)
            for h in range(5):
                generic_mu = _generic_mu(sig, h)
                pairs = [(rho_combination([(h, omega, 1)]),
                          nr_bracket(generic_mu, omega)),
                         (nr_product(mu(sig, h), omega),
                          nr_product(generic_mu, omega))]
                for fast, generic in pairs:
                    for tup in _index_tuples(sig, fast.arity, sig.degree_bound + 1):
                        value = fast._canonical_value(tup)
                        assert value == generic._canonical_value(tup), (
                            sig, degree, h, tup)
                        nonzero += bool(value)
        assert nonzero > 500, sig


def test_rho_reads_subset_product_tables(monkeypatch):
    omega = _general_op(SIG, 1, 3)
    nodes = [rho_combination([(h, omega, 1)]) for h in range(1, 4)]

    def refuse(*_args):
        raise AssertionError("rho multiplied block by block")

    monkeypatch.setattr(Signature, "mul_indices", refuse)
    for node in nodes:
        for tup in _index_tuples(SIG, node.arity, SIG.degree_bound + 1):
            node._canonical_value(tup)


def test_rho_keeps_one_memo():
    # a fresh signature, so that the only operators on it are this test's
    sig = Signature(even=1, odd=2, degree_bound=4)
    omega = _general_op(sig, 1, 7)
    nodes = [rho_combination([(h, omega, 1)]) for h in range(1, 4)]
    for node in nodes:
        for tup in _index_tuples(sig, node.arity):
            node._canonical_value(tup)
    gc.collect()
    held = [op for op in gc.get_objects()
            if isinstance(op, MultiOp) and op.signature is sig and op._cache]
    assert sorted(map(id, held)) == sorted(map(id, [omega, *nodes]))


def _rho_reference(terms):
    return op_combination([(rho_combination([(n, omega, 1)]), w)
                           for n, omega, w in terms])


@pytest.mark.parametrize("parity", [0, 1])
def test_rho_combination_matches_single_rho_nodes(parity):
    # each level mixes (n, omega.degree) pairs and nonzero, negative and
    # zero weights, on tuples one degree past the bound
    weights = (3, -2, 0, -1, 5)
    for sig in (SIG, Signature(even=1, odd=2, degree_bound=4, unital=False),
                Signature(even=2, odd=0, degree_bound=5)):
        p = parity if sig.odd else 0
        omegas = [_general_op(sig, d, 11 + d, p) for d in range(3)]
        nonzero = 0
        for top in range(2, 5):
            terms = [(top - d, omega, weights[(top + d) % len(weights)])
                     for d, omega in enumerate(omegas)]
            terms.append((top, omegas[0], -4))  # a repeated pair adds up
            fast, reference = rho_combination(terms), _rho_reference(terms)
            for tup in _index_tuples(sig, top + 1, sig.degree_bound + 1):
                value = fast._canonical_value(tup)
                assert value == reference._canonical_value(tup), (sig, top, tup)
                nonzero += bool(value)
        assert nonzero > 50, sig


def test_rho_combination_matches_brackets_without_a_product_table():
    # an associative signature, and a term with n = 0 on a commutative one:
    # mu is read from its memo there, on both sides
    nc = Signature(even=2, odd=1, degree_bound=3, commutative=False)
    for sig, terms in (
        (nc, lambda om: [(2, om[0], -3), (1, om[1], 2), (1, om[1], 0)]),
        (SIG, lambda om: [(0, om[2], 4), (1, om[1], -1), (2, om[0], 2)]),
    ):
        omegas = [_general_op(sig, d, 21 + d) for d in range(3)]
        terms = terms(omegas)
        fast = rho_combination(terms)
        reference = op_combination([(nr_bracket(_generic_mu(sig, n), omega), w)
                                    for n, omega, w in terms])
        seen = 0
        for tup in _index_tuples(sig, 3, sig.degree_bound + 1):
            value = fast._canonical_value(tup)
            assert value == reference._canonical_value(tup), (sig, tup)
            seen += bool(value)
        assert seen > 20, sig


def test_rho_combination_refuses_mismatched_terms():
    omega0, omega1 = _general_op(SIG, 0, 1), _general_op(SIG, 1, 2)
    other = _general_op(Signature(even=1, odd=2, degree_bound=3), 1, 3)
    even = _general_op(SIG, 0, 4, parity=0)
    for terms in ([],
                  [(1, omega1, 1), (1, omega0, 1)],  # degree
                  [(1, omega1, 1), (2, even, 1)],  # parity
                  [(1, omega1, 1), (1, other, 1)]):  # signature
        with pytest.raises(ValueError):
            rho_combination(terms)


def test_call_checks_the_signature_in_every_slot():
    other = Signature(even=1, odd=2, degree_bound=3)
    stranger = other.monomial_element(other.even_generator(0))
    op = _general_op(SIG, 2, 3)
    x = SIG.even_generator(0)
    one = SIG.monomial_element(x)  # one basis index: the one-read path
    multi = one.scale(2) + SIG.monomial_element(SIG.odd_generator(0))
    for fill in (x, one, multi):
        for slot in range(3):
            args = [fill] * 3
            args[slot] = stranger
            with pytest.raises(ValueError, match="signature mismatch"):
                op(*args)
    # after a multi-term element, the one-read path has been left
    for args in ((x, multi, stranger), (multi, one, stranger)):
        with pytest.raises(ValueError, match="signature mismatch"):
            op(*args)


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


def test_plans_are_the_shape_tables_of_their_tuple():
    # a fresh signature, so that its plans are this test's
    sig = Signature(even=1, odd=2, degree_bound=3)
    parities = sig.basis_parities()
    node = rho_combination([(2, _general_op(sig, 1, 5), 1)])
    degrees = sig.basis_degrees()
    within = _index_tuples(sig, node.arity)
    # the lists are lexicographic, so the tuples past the bound are picked
    # by their total degree
    beyond = [tup for tup in _index_tuples(sig, node.arity, sig.degree_bound + 2)
              if sum(degrees[i] for i in tup) > sig.degree_bound]
    assert len(beyond) == 112 and sig._plans == {}
    for tup in within + beyond:
        node._canonical_value(tup)
    # no tuple beyond the degree bound leaves an entry
    assert list(sig._plans) == within
    for tup in within:
        plan = sig._plans[tup]
        assert _plan(sig, tup) is plan
        assert plan == (sig.subset_products(tup),
                        *_shuffle_signs(tuple(parities[i] for i in tup)),
                        *_shuffle_shapes(_runs(tup)))
    for tup in beyond:
        assert _plan(sig, tup)[0] == sig.subset_products(tup)
    assert list(sig._plans) == within


@pytest.mark.parametrize("commutative", [True, False],
                         ids=["commutative", "associative"])
def test_nr_product_reads_one_plan_per_value(monkeypatch, commutative):
    # a fresh signature, so that its plans are this test's
    sig = Signature(even=1, odd=1, degree_bound=3, commutative=commutative)
    product = nr_product(_general_op(sig, 1, 5), _general_op(sig, 1, 6, 0))
    # tuples one degree past the bound too, which get a plan but leave none
    tuples = _index_tuples(sig, product.arity, sig.degree_bound + 1)
    read, calls = multilinear._plan, []
    monkeypatch.setattr(multilinear, "_plan",
                        lambda s, t: calls.append(t) or read(s, t))
    for tup in tuples:
        product._canonical_value(tup)
    assert calls == tuples
    assert list(sig._plans) == _index_tuples(sig, product.arity)


def test_value_memo_cold_and_warm(monkeypatch):
    # a fresh signature, so that its memo starts empty
    sig = Signature(even=1, odd=2, degree_bound=4)
    op = _general_op(sig, 2, 9)
    seen = set()
    for _ in ("cold", "warm"):
        for tup in canonical_tuples(sig, 3)[::3]:
            value = op._canonical_value(tuple(map(sig.index_of, tup)))
            parities = [sig.parity(m) for m in tup]
            for perm in itertools.permutations(range(3)):
                args = tuple(tup[i] for i in perm)
                assert (args in sig._canonical) == (args in seen)
                seen.add(args)
                assert op.value(args) == AlgebraElement(sig, value).scale(
                    koszul_sign(perm, parities))
        th, x = sig.odd_generator(0), sig.even_generator(0)
        for args in ((th, x, th), (x, th, th)):  # a repeated odd monomial
            assert (args in sig._canonical) == (args in seen)
            seen.add(args)
            assert op(*args).is_zero()
    assert len(sig._canonical) == len(seen) > 100
    # a returned value is a copy, not the operator's memo entry
    tup = canonical_tuples(sig, 3)[-1]
    op(*tup).terms.clear()
    assert op(*tup).terms
    # element arguments never enter the memo
    fresh = Signature(even=1, odd=2, degree_bound=4)
    op = _general_op(fresh, 2, 9)
    x, th = fresh.even_generator(0), fresh.odd_generator(0)
    one = fresh.monomial_element(x)
    multi = one.scale(2) + fresh.monomial_element(th)
    for args in ((one, x, th), (x, multi, th), (one, one, one)):
        op(*args)
    assert fresh._canonical == {}
    assert op(x, th, x) == op(one, fresh.monomial_element(th), one)
    assert len(fresh._canonical) == 1
    # past its size the memo takes no entry, and values stay right
    monkeypatch.setattr(multilinear, "ARGUMENT_MEMO_SIZE", 1)
    assert op(th, x, x) == op(x, th, x) and op(x, x, th) == op(x, th, x)
    assert len(fresh._canonical) == 1
