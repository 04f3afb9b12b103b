from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import multilinear
from antibrackets.brackets import inversion_check
from antibrackets.multilinear import (
    derivation_endo,
    is_zero_op,
    linear_op,
    mu,
    multiplication_endo,
    nr_bracket,
    nr_product,
    odd_partial_endo,
    ops_equal,
    random_endo,
)
from antibrackets.rational import rat
from antibrackets.superalgebra import Signature

SIG = Signature(even=2, odd=2, degree_bound=4)
NC = Signature(even=2, odd=1, degree_bound=3, commutative=False)


# -- koszul sign -------------------------------------------------------------


# The reference sign of a reordering, which the package computes by its sign
# tables instead; the test modules check those tables against it.
def koszul_sign(sigma, parities) -> int:
    """Sign for reordering (v_1..v_n) into (v_sigma(1)..v_sigma(n)).

    ``sigma`` lists the original (0-based) index placed at each position;
    ``parities`` are the parities of the original sequence.  Each inverted
    pair of odd elements contributes a factor -1.
    """
    if len(sigma) != len(parities):
        raise ValueError("permutation and parity lengths differ")
    sign = 1
    n = len(sigma)
    for i in range(n):
        if not parities[sigma[i]]:
            continue
        for j in range(i + 1, n):
            if sigma[i] > sigma[j] and parities[sigma[j]]:
                sign = -sign
    return sign


def test_koszul_sign_even_swap_is_plus():
    assert koszul_sign((1, 0), [0, 0]) == 1
    assert koszul_sign((1, 0), [0, 1]) == 1


def test_koszul_sign_odd_swap_is_minus():
    assert koszul_sign((1, 0), [1, 1]) == -1


def test_koszul_sign_composes_over_transpositions():
    # moving an odd element past two odds gives (+1)*(-1)*(-1)
    assert koszul_sign((1, 2, 0), [1, 1, 1]) == 1
    assert koszul_sign((2, 0, 1), [1, 1, 1]) == 1
    assert koszul_sign((2, 1, 0), [1, 1, 1]) == -1


# -- signature / basis -------------------------------------------------------


def test_basis_is_degree_sorted_and_indexed():
    basis = SIG.basis()
    degrees = [SIG.degree(m) for m in basis]
    assert degrees == sorted(degrees)
    assert basis[0] == SIG.unit()
    for i, m in enumerate(basis):
        assert SIG.index_of(m) == i


def test_basis_dimensions_commutative():
    # p=2, q=2: dim of degree d part is sum_j C(j+1,1)*C(2, d-j)
    from math import comb

    basis = SIG.basis()
    for d in range(SIG.degree_bound + 1):
        count = sum(1 for m in basis if SIG.degree(m) == d)
        expected = sum(comb(j + 1, 1) * comb(2, d - j) for j in range(d + 1))
        assert count == expected


def test_noncommutative_basis_is_all_words():
    basis = NC.basis()
    assert len(basis) == sum(3**d for d in range(4))


def test_non_unital_basis_excludes_unit():
    sig = Signature(even=1, odd=0, degree_bound=3, unital=False)
    assert all(sig.degree(m) >= 1 for m in sig.basis())
    with pytest.raises(ValueError):
        sig.unit()


@pytest.mark.parametrize("name, value", [
    ("even", 1.5), ("odd", 2.0), ("degree_bound", 3.0), ("even", True),
    ("degree_bound", "3"),
])
def test_signature_refuses_sizes_that_are_not_ints_when_built(name, value):
    # refused when built: the basis enumeration recurses without end on a
    # float count and raises TypeError on a float bound
    message = f"{name} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Signature(**{name: value})


@pytest.mark.parametrize("sig, m", [
    (Signature(even=2, odd=2, degree_bound=3), ((4, 0), ())),
    (Signature(even=2, odd=2, degree_bound=3), ((1, 0), (0, 0))),
    (Signature(even=1, odd=0, degree_bound=3, unital=False), ((0,), ())),
], ids=["above the bound", "repeated odd index", "unit when non-unital"])
def test_non_basis_monomials_are_rejected_where_they_come_in(sig, m):
    for convert in (sig.index_of, sig.monomial_element,
                    lambda m: sig.element({m: 1})):
        with pytest.raises(ValueError, match=re.escape(repr(m))):
            convert(m)


# -- monomial products -------------------------------------------------------


def monomials(sig, max_degree=2):
    return [m for m in sig.basis() if sig.degree(m) <= max_degree]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_supercommutative(data):
    ms = monomials(SIG)
    a = data.draw(st.sampled_from(ms))
    b = data.draw(st.sampled_from(ms))
    sa, pa = SIG.mul_monomials(a, b)
    sb, pb = SIG.mul_monomials(b, a)
    swap = (-1) ** (SIG.parity(a) * SIG.parity(b))
    assert pa == pb
    assert sa == swap * sb


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_associative(data):
    ms = monomials(SIG, 1)
    a, b, c = (data.draw(st.sampled_from(ms)) for _ in range(3))
    ea = SIG.monomial_element(a)
    eb = SIG.monomial_element(b)
    ec = SIG.monomial_element(c)
    assert (ea * eb) * ec == ea * (eb * ec)


def test_odd_generator_squares_to_zero():
    th = SIG.odd_generator(0)
    assert SIG.mul_monomials(th, th) == (0, None)


def test_degree_bound_truncates_products():
    x = SIG.even_generator(0)
    high = SIG.monomial_element(x)
    power = high
    for _ in range(SIG.degree_bound - 1):
        power = power * high
    assert not power.is_zero()
    assert (power * high).is_zero()


def _reference_mul_monomials(sig, a, b):
    """a b letter by letter: the exponents add, and the odd letters of a
    then b, sorted, sign the product by the Koszul sign of their sort; zero
    on a repeated odd letter or a degree above D."""
    (ea, oa), (eb, ob) = a, b
    letters = oa + ob
    if (len(set(letters)) < len(letters)
            or sig.degree(a) + sig.degree(b) > sig.degree_bound):
        return (0, None)
    order = sorted(range(len(letters)), key=letters.__getitem__)
    return (koszul_sign(order, [1] * len(letters)),
            (tuple(x + y for x, y in zip(ea, eb)),
             tuple(letters[i] for i in order)))


@pytest.mark.parametrize("sig", [
    Signature(even=2, odd=2, degree_bound=4),
    Signature(even=0, odd=3, degree_bound=4),
    Signature(even=1, odd=2, degree_bound=3, unital=False),
], ids=repr)
def test_mul_monomials_matches_letter_by_letter_products(sig):
    # the rule every row of degree <= 1 is built from, on every basis pair
    basis = sig.basis()
    signs = set()
    for a in basis:
        for b in basis:
            expected = _reference_mul_monomials(sig, a, b)
            assert sig.mul_monomials(a, b) == expected, (a, b)
            signs.add(expected[0])
    assert signs == {0, 1, -1}


KERNEL_SIGNATURES = [
    Signature(even=2, odd=3, degree_bound=4),
    Signature(even=1, odd=2, degree_bound=3, unital=False),
    Signature(even=2, odd=1, degree_bound=3, commutative=False),
]


@pytest.mark.parametrize("sig", KERNEL_SIGNATURES, ids=repr)
def test_row_products_match_direct_products(sig):
    basis = sig.basis()
    seen = set()
    for a in basis:
        for b in basis:
            sign, prod = sig.mul_monomials(a, b)
            product = sig.mul_indices((sig.index_of(a), sig.index_of(b)))
            assert product == ((sign, sig.index_of(prod)) if sign else (0, None))
            if sign:
                seen.add(sign)
            elif sig.degree(a) + sig.degree(b) > sig.degree_bound:
                seen.add("degree")
            else:
                seen.add("odd letter")
    if sig.commutative:
        assert seen == {1, -1, "degree", "odd letter"}
    else:
        assert seen == {1, "degree"}


@pytest.mark.parametrize("sig", KERNEL_SIGNATURES, ids=repr)
def test_rows_cover_the_surviving_degree_prefix(sig):
    basis = sig.basis()
    for j, b in enumerate(basis):
        room = sig.degree_bound - sig.degree(b)
        assert len(sig.mul_row(j)) == sum(sig.degree(m) <= room for m in basis)


COMPOSED_SIGNATURES = KERNEL_SIGNATURES + [
    Signature(even=0, odd=3, degree_bound=4),
    Signature(even=3, odd=0, degree_bound=5),
    Signature(even=1, odd=2, degree_bound=3, commutative=False, unital=False),
]


@pytest.mark.parametrize("sig", COMPOSED_SIGNATURES, ids=repr)
def test_composed_rows_match_product_rule_rows(sig):
    # rows of degree >= 2 are composed from two other rows; each must be
    # the row the monomial product rule gives entry by entry
    basis = sig.basis()
    composed = 0
    for j, b in enumerate(basis):
        room = sig.degree_bound - sig.degree(b)
        expected = []
        for a in basis:
            if sig.degree(a) > room:
                break
            s, m = sig.mul_monomials(a, b)
            expected.append(s * (sig.index_of(m) + 1) if s else 0)
        assert sig.mul_row(j) == expected, b
        composed += sig.degree(b) >= 2 and any(expected)
    assert composed


@pytest.mark.parametrize("sig", COMPOSED_SIGNATURES + [
    Signature(even=1, odd=1, degree_bound=5),
    Signature(even=2, odd=2, degree_bound=4),
    Signature(even=0, odd=4, degree_bound=4, unital=False),
    Signature(even=0, odd=2, degree_bound=4, commutative=False),
    Signature(even=1, odd=1, degree_bound=4, commutative=False),
], ids=repr)
def test_split_letter_products_take_no_sign(sig):
    # a row of degree >= 2 is composed from the rows of g and m' with no sign
    # of its own: g is the first even letter, else the first odd one, so it
    # moves past no odd letter of m' and g m' is +m on every split
    splits = odd_past_odd = 0
    for m in sig.basis():
        if sig.degree(m) >= 2:
            g, rest = sig._split_letter(m)
            assert sig.mul_monomials(g, rest) == (1, m), m
            splits += 1
            odds = rest[1] if sig.commutative else [l for l in rest if l >= sig.even]
            odd_past_odd += sig.parity(g) and bool(odds)
    assert splits
    assert odd_past_odd or sig.odd < (2 if sig.commutative else 1)


@pytest.mark.parametrize("sig", KERNEL_SIGNATURES, ids=repr)
def test_index_product_matches_sequential_products(sig):
    basis = sig.basis()
    rng = random.Random(3)
    for _ in range(200):
        tup = [rng.choice(basis) for _ in range(rng.randint(1, 4))]
        sign, prod = 1, tup[0]
        for m in tup[1:]:
            s, prod = sig.mul_monomials(prod, m)
            sign *= s
            if not s:
                break
        product = sig.mul_indices([sig.index_of(m) for m in tup])
        if not sign:
            assert product == (0, None)
        else:
            assert product == (sign, sig.index_of(prod))


@pytest.mark.parametrize("sig", KERNEL_SIGNATURES, ids=repr)
def test_subset_products_match_block_products(sig):
    basis = sig.basis()
    parities = sig.basis_parities()
    odd = [i for i, p in enumerate(parities) if p]
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        tup = [rng.randrange(len(basis)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            tup.insert(rng.randrange(len(tup) + 1), rng.choice(tup + odd))
        table = sig.subset_products(tup)
        assert len(table) == 2 ** len(tup) and table[0] == (0, None)
        for mask in range(1, len(table)):
            block = [j for pos, j in enumerate(tup) if mask >> pos & 1]
            product = sig.mul_indices(block)
            assert table[mask] == product, (tup, mask)
            if product[0]:
                seen.add(product[0])
            elif sum(sig.degree(basis[j]) for j in block) > sig.degree_bound:
                seen.add("degree")
            else:
                seen.add("odd letter")
    if sig.commutative:
        assert seen == {1, -1, "degree", "odd letter"}
    else:
        assert seen == {1, "degree"}


def _subset_products_one_pair_per_entry(sig, indices):
    """subset_products as built with a new (sign, index) pair per entry."""
    table = [(0, None)]
    for j in indices:
        row = sig.mul_row(j)
        table.append((1, j))
        for s, acc in table[1 : len(table) - 1]:
            e = row[acc] if s and acc < len(row) else 0
            table.append((s, e - 1) if e > 0 else (-s, -e - 1) if e else (0, None))
    return table


@pytest.mark.parametrize("sig", KERNEL_SIGNATURES, ids=repr)
def test_subset_products_share_one_pair_per_index_and_sign(sig):
    rng = random.Random(9)
    size = len(sig.basis())
    pairs = {}
    for _ in range(200):
        tup = [rng.randrange(size) for _ in range(rng.randint(1, 5))]
        table = sig.subset_products(tup)
        assert table == _subset_products_one_pair_per_entry(sig, tup), tup
        for entry in table:  # across tables as well
            assert pairs.setdefault(entry, entry) is entry
    assert {s for s, _ in pairs} == ({0, 1, -1} if sig.commutative else {0, 1})


@pytest.mark.parametrize("sig", KERNEL_SIGNATURES, ids=repr)
def test_mul_into_matches_monomial_products(sig):
    basis = sig.basis()
    rng = random.Random(5)
    coeff = rat(-3, 2)
    past_end = 0
    for j, b in enumerate(basis):
        pairs = [(i, rng.randint(1, 9)) for i in range(len(basis))]
        rng.shuffle(pairs)
        past_end += sum(i >= len(sig.mul_row(j)) for i, _ in pairs)
        acc = {k: k + 1 for k in range(0, len(basis), 2)}
        want = dict(acc)
        for i, v in pairs:
            s, m = sig.mul_monomials(basis[i], b)
            if s:
                k = sig.index_of(m)
                want[k] = want.get(k, 0) + s * coeff * v
        sig.mul_into(acc, pairs, j, coeff)
        assert acc == want
    assert past_end


def test_canonical_indices_match_koszul_sign():
    parities = SIG.basis_parities()
    even = [i for i, p in enumerate(parities) if not p]
    odd = [i for i, p in enumerate(parities) if p]
    tuples = [
        (even[1], odd[0], odd[2], even[3]),
        (odd[0], odd[1], odd[3], even[2]),
        (even[1], even[1], odd[1], odd[4]),
        (odd[2], even[0], odd[2], odd[1]),  # a repeated odd index
    ]
    seen = set()
    for tup in tuples:
        repeated_odd = len({i for i in tup if parities[i]}) < sum(
            parities[i] for i in tup
        )
        for perm in itertools.permutations(range(len(tup))):
            args = tuple(tup[i] for i in perm)
            sign, canon = SIG.canonical_indices(args)
            if repeated_odd:
                assert (sign, canon) == (0, None)
                seen.add(0)
                continue
            order = sorted(range(len(args)), key=args.__getitem__)
            assert canon == tuple(sorted(args))
            assert sign == koszul_sign(order, [parities[i] for i in args])
            seen.add(sign)
    assert seen == {1, -1, 0}


def test_canonical_indices_match_the_general_path_on_random_lists():
    # lists with no odd index and with one take the early return
    parities = SIG.basis_parities()
    even = [i for i, p in enumerate(parities) if not p]
    odd = [i for i, p in enumerate(parities) if p]
    rng = random.Random(13)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        args = rng.sample(odd, min(rng.randint(0, 3), n))
        args += [rng.choice(even) for _ in range(n - len(args))]
        if rng.random() < 0.2 and args[0] in odd:
            args.append(args[0])  # a repeated odd index
        rng.shuffle(args)
        odd_count = sum(parities[i] for i in args)
        if len(set(i for i in args if parities[i])) < odd_count:
            general = (0, None)
        else:
            order = sorted(range(len(args)), key=args.__getitem__)
            general = (koszul_sign(order, [parities[i] for i in args]),
                       tuple(sorted(args)))
        assert SIG.canonical_indices(args) == general, args
        seen.add((min(odd_count, 2), general[0]))
    assert seen == {(0, 1), (1, 1), (2, 1), (2, -1), (2, 0)}


def test_noncommutative_product_concatenates():
    a, b = NC.even_generator(0), NC.even_generator(1)
    assert NC.mul_monomials(a, b) == (1, a + b)
    assert NC.mul_monomials(b, a) == (1, b + a)
    assert NC.mul_monomials(a, b)[1] != NC.mul_monomials(b, a)[1]


def test_monomial_str():
    exps_mono = ((2, 0), (1,))
    assert SIG.monomial_str(exps_mono) == "x1^2*th2"
    assert SIG.monomial_str(SIG.unit()) == "1"
    assert NC.monomial_str((0, 2, 1)) == "x1*th1*x2"


# -- elements ----------------------------------------------------------------


def test_element_parity_detection():
    x = SIG.monomial_element(SIG.even_generator(0))
    th = SIG.monomial_element(SIG.odd_generator(0))
    assert x.parity() == 0
    assert th.parity() == 1
    assert (x + th).parity() is None
    assert SIG.element().parity() == 0


def test_element_arithmetic_drops_zeros():
    x = SIG.monomial_element(SIG.even_generator(0))
    assert (x - x).is_zero()
    assert (x.scale(0)).is_zero()


def test_element_negation_scaling_and_comparison():
    x = SIG.monomial_element(SIG.even_generator(0))
    assert repr(-x) == "-x1"
    assert x * 3 == 3 * x == x.scale(3)
    assert repr(x * 3) == "3*x1"
    assert (x == 1) is False


@pytest.mark.parametrize("c, text", [(1, "1 + x1"), (-1, "-1 + x1")])
def test_element_repr_shows_a_unit_constant_term(c, text):
    x = SIG.monomial_element(SIG.even_generator(0))
    assert repr(SIG.one().scale(c) + x) == text


def test_associative_odd_generators_follow_the_even_letters():
    assert [NC.odd_generator(i) for i in range(NC.odd)] == [(NC.even,)]
    sig = Signature(even=1, odd=2, degree_bound=2, commutative=False)
    assert [sig.odd_generator(i) for i in range(2)] == [(1,), (2,)]
    assert sig.parity(sig.odd_generator(1)) == 1


# -- linear operators: degree-0 MultiOps on these algebras --------------------


def test_random_endo_is_deterministic_and_parity_structured():
    f1 = random_endo(SIG, 7, parity="odd")
    f2 = random_endo(SIG, 7, parity="odd")
    assert f1.degree == 0
    assert ops_equal(f1, f2)
    basis = SIG.basis()
    for m in basis:
        want = (SIG.parity(m) + 1) % 2
        assert all(SIG.parity(basis[t]) == want for t in f1(m).terms)


def random_endo_reference(signature, seed, parity="even", density=0.25):
    """Reference: random_endo's images as first written, one draw at a time."""
    par = {"even": 0, "odd": 1, 0: 0, 1: 1}[parity]
    rng = random.Random(seed)
    parities = signature.basis_parities()
    by_parity = {p: [k for k, q in enumerate(parities) if q == p] for p in (0, 1)}
    images = {}
    for i, p in enumerate(parities):
        image = images[i] = {}
        for k in by_parity[(p + par) % 2]:
            if rng.random() >= density:
                continue
            image[k] = rng.randint(-9, 9)
    return images


STREAM_GRID = [(seed, parity, density) for seed in (0, 7, 2**31 - 1)
               for parity in ("even", "odd", 0, 1)
               for density in (0, 0.25, rat(1, 2), 1.0)]  # any real in [0, 1]
STREAM_CASES = [(sig, STREAM_GRID) for sig in (
    SIG,
    Signature(even=2, odd=1, degree_bound=3, unital=False),
    Signature(even=0, odd=3, degree_bound=3),
    NC,
    Signature(even=2, odd=2, degree_bound=5),  # 70 monomials
)] + [
    # the pointwise benchmark's operators: 833 monomials, at its density
    (Signature(even=3, odd=3, degree_bound=8), [(7, "even", 0.25), (7, "odd", 0.25)]),
]


@pytest.mark.parametrize("sig, draws", STREAM_CASES,
                         ids=[repr(sig) for sig, _ in STREAM_CASES])
def test_random_endo_keeps_the_reference_stream(sig, draws):
    # each image in the reference's order: a memo's order sets the order of
    # every later accumulation that reads it; the rows are the same whichever
    # row is read first
    size = len(sig.basis())
    orders = [range(size), [size - 1, *range(size - 1)], range(size - 1, -1, -1)]
    for seed, parity, density in draws:
        want = random_endo_reference(sig, seed, parity, density)
        for order in orders:
            f = random_endo(sig, seed, parity=parity, density=density)
            for i in order:
                assert list(f._canonical_value((i,)).items()) == [
                    (k, c) for k, c in want[i].items() if c], (
                        seed, parity, density, i)


def test_random_endo_draws_at_the_first_read(monkeypatch):
    """Building operators and passing inversion checks draw nothing; the
    first image read draws every row, and a second read draws none."""
    calls = []

    class Counting(random.Random):
        def random(self):
            calls.append(1)
            return super().random()

    monkeypatch.setattr(multilinear.random, "Random", Counting)
    sig = Signature(even=3, odd=3, degree_bound=8)
    ops = [random_endo(sig, 7, parity="even"), random_endo(sig, 8, parity="odd")]
    x, y, th = sig.even_generator(0), sig.even_generator(1), sig.odd_generator(0)
    for f in ops:
        for n, args in ((1, [x]), (2, [x, th]), (3, [x, y, th])):
            assert inversion_check(f, n, args)
    assert not calls
    parities = sig.basis_parities()
    allowed = sum(parities.count(p) for p in parities)  # even: same parity
    ops[0]._canonical_value((5,))
    assert len(calls) == allowed
    ops[0]._canonical_value((9,))
    assert len(calls) == allowed


@pytest.mark.parametrize("name, value", [
    ("seed", 1.0), ("seed", "1"), ("seed", None), ("seed", True),
    ("density", 2), ("density", -0.5), ("density", float("nan")),
    ("density", "0.5"), ("density", 1j),
])
def test_random_endo_checks_seed_and_density_when_built(name, value):
    want = {"seed": "an int", "density": "a real number in [0, 1]"}[name]
    message = f"{name} must be {want}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        random_endo(SIG, **{"seed": 1, name: value})


def test_random_endo_rejects_unknown_parity():
    with pytest.raises(ValueError, match="'even', 'odd', 0 or 1"):
        random_endo(SIG, 1, parity="x")


def test_endo_parity_validation():
    x = SIG.even_generator(0)
    th = SIG.odd_generator(0)
    with pytest.raises(ValueError):
        linear_op(SIG, {SIG.index_of(x): {SIG.index_of(th): 1}}, parity=0)


SMALL = Signature(even=1, odd=1, degree_bound=2)  # 5 basis monomials


@pytest.mark.parametrize("images, parity, key", [
    ({-1: {0: 1}}, None, "-1"),
    ({5: {0: 1}}, None, "5"),
    ({0: {5: 1}}, None, "5"),
    ({0: {5: 1}}, 0, "5"),
    ({0: {5: 1, 1: 1}}, None, "5"),  # last after sorting
    ({0: {-1: 1}}, None, "-1"),
    ({((1,), ()): {0: 1}}, None, "((1,), ())"),  # a monomial row key
    ({0: {((1,), ()): 1}}, None, "((1,), ())"),
    ({0: {1: 1, ((1,), ()): 1}}, None, "((1,), ())"),  # keys that do not sort
    ({0: {0: 1, 1.5: 1, 3: 1}}, None, "1.5"),  # sorts between two ints
    ({True: {0: 1}}, None, "True"),  # equal to the basis index 1
    ({0: {True: 1}}, None, "True"),
    ({0: {0: 1, 2.0: 1}}, None, "2.0"),
])
def test_endo_rejects_keys_outside_the_basis(images, parity, key):
    """A bad key is named whatever the declared parity (None: both)."""
    assert len(SMALL.basis()) == 5
    for p in (0, 1) if parity is None else (parity,):
        with pytest.raises(ValueError, match=f"^{re.escape(key)} is not a basis index"):
            linear_op(SMALL, images, parity=p)


def test_endo_refuses_elements_of_another_signature():
    f = random_endo(Signature(even=2, odd=2, degree_bound=5), 1)
    other = Signature(even=1, odd=1, degree_bound=3)
    th = other.monomial_element(other.odd_generator(0))
    with pytest.raises(ValueError, match="signature mismatch"):
        f(th)


@pytest.mark.parametrize("host, other, generator", [
    (Signature(1, 1, 2), Signature(1, 1, 3), "even"),
    (Signature(1, 1, 3), Signature(1, 1, 2), "even"),
    (Signature(1, 1, 3, unital=False), Signature(1, 1, 3), "odd"),
], ids=["larger-bound", "smaller-bound", "unital-twin"])
def test_multiplication_endo_refuses_elements_of_another_signature(
        host, other, generator):
    m = (other.even_generator(0) if generator == "even"
         else other.odd_generator(0))
    with pytest.raises(ValueError, match="signature mismatch"):
        multiplication_endo(host, other.monomial_element(m))


def test_derivation_satisfies_leibniz():
    d = derivation_endo(SIG)
    for a, b in itertools.product(monomials(SIG, 2), repeat=2):
        ea, eb = SIG.monomial_element(a), SIG.monomial_element(b)
        lhs = d(ea * eb)
        rhs = d(ea) * eb + ea * d(eb)
        assert lhs == rhs


def test_odd_partial_is_square_zero_odd_derivation():
    d = odd_partial_endo(SIG)
    assert d.parity == 1
    assert is_zero_op(nr_product(d, d))
    th1 = SIG.monomial_element(SIG.odd_generator(0))
    assert d(th1) == SIG.one()
    # graded Leibniz: d(ab) = d(a) b + (-1)^|a| a d(b)
    for a, b in itertools.product(monomials(SIG, 2), repeat=2):
        ea, eb = SIG.monomial_element(a), SIG.monomial_element(b)
        sign = (-1) ** SIG.parity(a)
        assert d(ea * eb) == d(ea) * eb + (ea * d(eb)).scale(sign)


def _image(f, i):
    """The value of the linear operator f on (i,), as stored."""
    return f._canonical_value((i,))


def _assert_no_zero_coefficients(f):
    assert f.degree == 0
    for i in range(len(f.signature.basis())):
        assert all(_image(f, i).values())


def test_operator_values_have_no_zero_coefficients():
    x = SIG.monomial_element(SIG.even_generator(0))
    th = SIG.monomial_element(SIG.odd_generator(0))
    ident = mu(SIG, 0)
    f = random_endo(SIG, 3, parity="odd")
    g = random_endo(SIG, 4, parity="even")
    d = derivation_endo(SIG)
    # th2 -> 4 x2*th2 - th1; the zero entries, one of the wrong parity, drop
    by_hand = linear_op(SIG, {2: {7: 4, 5: 0, 1: -1}, 7: {1: 0}}, parity=0)
    assert _image(by_hand, 2) == {1: -1, 7: 4}
    assert _image(by_hand, 7) == {}
    ops = [by_hand, linear_op(SIG, {}, parity=0), ident, f, g, d,
           odd_partial_endo(SIG), multiplication_endo(SIG, x),
           multiplication_endo(SIG, th), nr_product(f, g), nr_product(g, d)]
    cancelling = nr_bracket(ident, f)  # every row cancels
    assert is_zero_op(cancelling)
    assert all(_image(cancelling, i) == {} for i in range(len(SIG.basis())))
    # x2 * and d/dx1 commute except where x2 * m dies by degree
    x2 = multiplication_endo(SIG, SIG.monomial_element(SIG.even_generator(1)))
    partly = nr_bracket(x2, d)
    both = nr_product(x2, d)
    assert not is_zero_op(partly)
    assert any(_image(both, i) and not _image(partly, i)
               for i in range(len(SIG.basis())))
    for op in ops + [cancelling, partly, nr_bracket(f, g), nr_bracket(f, f)]:
        _assert_no_zero_coefficients(op)


def test_supercommutator_identity_central():
    ident = mu(SIG, 0)
    f = random_endo(SIG, 3, parity="odd")
    assert is_zero_op(nr_bracket(ident, f))


def test_multiplication_endo_left_action():
    th = SIG.monomial_element(SIG.odd_generator(0))
    mult = multiplication_endo(SIG, th)
    assert mult.parity == 1
    x = SIG.monomial_element(SIG.even_generator(0))
    assert mult(x) == th * x
    assert is_zero_op(nr_product(mult, mult))
