from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import qxrep
from antibrackets.combinatorics import mu_bracket_factor
from antibrackets.qxrep import (
    AbstractPhiCombination,
    DegreeOverflowError,
    QxOperator,
    SingularMatrixError,
    bn_zero_witness,
    coderivation_check,
    coderivation_dn,
    coefficient_series,
    coefficient_table_entry,
    conjecture_formula,
    duality_check,
    phi_n_signed_sum,
    phi_ni,
    rho_abstract,
    rho_action,
    rho_bracket_check,
    rho_on_phi_ni,
    solve_coefficients,
    solve_linear,
    witt_phi_check,
    witt_psi_check,
)
from antibrackets.rational import rat


# -- polynomial-operator realization ----------------------------------------


def test_phi_ni_images():
    op = phi_ni(3, 2, 6)
    assert op.columns[2] == {1: rat(1)}
    assert op.columns[1] == {}
    assert op.columns[3] == {}


def test_phi_ni_bounds():
    with pytest.raises(ValueError):
        phi_ni(3, 4, 8)
    with pytest.raises(DegreeOverflowError):
        phi_ni(9, 8, 6)


def test_operator_algebra_kills_constants():
    with pytest.raises(ValueError):
        QxOperator(3, {0: {0: rat(1)}})


@pytest.mark.parametrize("columns", [{-1: {1: rat(1)}}, {1: {-2: rat(1)}}])
def test_operator_rejects_negative_powers(columns):
    with pytest.raises(ValueError, match="negative power"):
        QxOperator(3, columns)


def test_apply_and_compose():
    d1 = coderivation_dn(1, 6)  # x d^2/2: x^m -> C(m,2) x^(m-1)
    assert d1.apply({3: rat(1)}) == {2: rat(3)}  # x^3
    composed = d1.compose(d1)
    assert composed.apply({5: rat(1)}) == {3: rat(10 * 6)}


def test_rho_action_matches_closed_form_low_range():
    for k in range(1, 4):
        for n in range(1, 4):
            for i in range(1, n + 1):
                bound = n + k + 3
                lhs = rho_action(k, phi_ni(n, i, bound))
                rhs = rho_on_phi_ni(k, n, i).to_operator(bound)
                assert lhs == rhs, (k, n, i)


@pytest.mark.parametrize("k, p, bound", [
    (2, 3, 4),  # p = k+1: psi(L_k) kills x^p, the overflow still raises
    (3, 2, 4),
    (1, 4, 4),
])
def test_rho_action_raises_when_a_column_leaves_the_bound(k, p, bound):
    psi = QxOperator(bound, {1: {p: rat(1)}})
    with pytest.raises(DegreeOverflowError):
        rho_action(k, psi)
    # one degree more room and the same column stays inside
    rho_action(k, QxOperator(bound + 1, {1: {p: rat(1)}}))


@pytest.mark.parametrize("rule, factor", [
    (qxrep._d, mu_bracket_factor),
    (qxrep._phi, lambda n, m: n - m),
    (qxrep._psi, lambda n, m: n - m),
], ids=["d", "phi", "psi"])
def test_commutator_relation_fails_for_a_wrong_factor(rule, factor):
    for n, m in ((1, 0), (2, 1), (3, 1)):
        assert qxrep._commutator_relation(rule, n, m, factor(n, m), 8)
        assert not qxrep._commutator_relation(rule, n, m, factor(n, m) + 1, 8)


def test_rho_abstract_matches_matrix_on_combinations():
    comb = AbstractPhiCombination.from_dict(2, {1: rat(3), 2: rat(-1, 2)})
    for k in (1, 2):
        lhs = rho_abstract(k, comb).to_operator(8)
        rhs = rho_action(k, comb.to_operator(8))
        assert lhs == rhs


def test_rho_representation_bracket_relations():
    psi = phi_ni(2, 1, 10)
    for n in range(1, 4):
        for m in range(1, n):
            assert rho_bracket_check(n, m, psi)


# -- linear solver -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_solve_linear_solves_or_raises(matrix, rhs):
    matrix = [[rat(v) for v in row] for row in matrix]
    rhs = [rat(v) for v in rhs]
    try:
        solution = solve_linear(matrix, rhs)
    except SingularMatrixError:
        return
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, solution)) == b


def test_solve_linear_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear([[rat(1), rat(2)], [rat(2), rat(4)]], [rat(1), rat(1)])


def _solve_linear_rational(matrix, rhs):
    """Reference: Gauss-Jordan on rationals, pivot row normalised to 1."""
    n = len(matrix)
    aug = [[rat(v) for v in row] + [rat(rhs[r])] for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = rat(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


# About a third of the entries are zero (so pivots need row swaps); the rest
# are ints or rationals, so rows are scaled by the lcm of their denominators.
_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(rat, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def _linear_systems(draw):
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 9)) == 0:
            rows.append(list(draw(st.sampled_from(rows))))  # singular
        else:
            rows.append(draw(st.lists(_entries, min_size=n, max_size=n)))
    return rows, draw(st.lists(_entries, min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(_linear_systems())
def test_solve_linear_matches_rational_reference(system):
    matrix, rhs = system
    try:
        expected = _solve_linear_rational(matrix, rhs)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            solve_linear(matrix, rhs)
        return
    assert solve_linear(matrix, rhs) == expected


# -- universal coefficients --------------------------------------------------


def test_low_degree_coefficients_match_bullet_formulas():
    assert list(solve_coefficients(1).c) == [rat(-1)]
    assert list(solve_coefficients(2).c) == [rat(1, 2), rat(1, 2)]
    assert list(solve_coefficients(3).c) == [rat(-1, 6), rat(-1, 2), rat(-1)]
    assert list(solve_coefficients(4).c) == [
        rat(1, 30), rat(1, 5), rat(1), rat(3),
    ]
    assert list(solve_coefficients(5).c) == [
        rat(-1, 270), rat(-1, 27), rat(-1, 3), rat(-7, 3), rat(-28, 3),
    ]


def test_induction_basis_matrix_holds_ints(monkeypatch):
    systems = []

    def recording_solve(matrix, rhs):
        systems.append((matrix, rhs))
        return solve_linear(matrix, rhs)

    monkeypatch.setattr(qxrep, "solve_linear", recording_solve)
    for n in range(1, 8):
        solve_coefficients(n)
    assert len(systems) == 7
    for matrix, rhs in systems:
        assert all(type(v) is int for row in matrix for v in row)
        assert all(type(v) is int for v in rhs)


def _induction_system_from_scratch(n):
    """Reference: every column of degree n built from Phi(1,1) or Phi(2,2)."""
    phi11 = AbstractPhiCombination.from_dict(1, {1: 1})
    columns = []
    for i in range(1, n + 1):
        vec = rho_abstract(i, phi11)
        for _ in range(n - i):
            vec = rho_abstract(1, vec)
        columns.append(vec.vector())
    extra = AbstractPhiCombination.from_dict(2, {2: 1})
    for _ in range(n - 1):
        extra = rho_abstract(1, extra)
    columns.append(extra.vector())
    target = [(-1) ** (n + 1 - i) for i in range(1, n + 2)]
    matrix = [[columns[c][r] for c in range(n + 1)] for r in range(n + 1)]
    return matrix, target


def test_shared_columns_match_from_scratch_reference():
    systems = qxrep._induction_systems()
    series = coefficient_series(30)
    assert list(series) == list(range(1, 31))
    for n in range(1, 31):
        matrix, target = _induction_system_from_scratch(n)
        assert next(systems) == (matrix, target)
        assert series[n] == solve_coefficients(n)
        # the reordered solve agrees with the system solved in its own order
        solution = solve_linear(matrix, target)
        assert series[n].c == tuple(solution[:n]) and series[n].b == solution[n]


def test_auxiliary_coefficient_vanishes():
    for n in range(1, 9):
        assert solve_coefficients(n).b == 0


def test_conjectured_formula_matches_solver():
    for n in range(2, 9):
        solved = solve_coefficients(n)
        for i in range(1, n + 1):
            assert conjecture_formula(n, i) == solved.c[i - 1]


def _conjecture_formula_fraction(n, i):
    """Reference: the closed form with every product taken in rationals."""

    def top_product(upto):
        prod = rat(1)
        for j in range(2, upto + 1):
            prod *= rat(n * (n - 1) - (j - 1) * (j - 2), 2)
        return prod

    denominator = rat(0)
    for h in range(2, n + 1):
        tail = rat(1)
        for j in range(h, n):
            tail *= rat((1 - j) * (j + 2), 2)
        denominator += h * top_product(h) * tail
    return rat((-1) ** n) * top_product(i) / denominator


def test_conjecture_formula_matches_rational_reference():
    for n in range(2, 31):
        for i in range(1, n + 1):
            assert conjecture_formula(n, i) == _conjecture_formula_fraction(n, i)


def test_table_normalization_spot_values():
    assert coefficient_table_entry(2, 1) == 1
    assert coefficient_table_entry(3, 3) == 6
    assert coefficient_table_entry(7, 5) == 7560


@pytest.mark.parametrize("i", [0, -1, 6])
def test_table_entry_rejects_index_outside_one_to_n(i):
    # (5, 0) and (5, -1) used to read the entries for i = 5 and i = 4
    with pytest.raises(ValueError, match="need 1 <= i <= n"):
        coefficient_table_entry(5, i)


def test_signed_sum_solves_standard_form():
    # reassemble Phi^(n+1) from the solved coordinates in the matrix model
    for n in (2, 3, 4):
        bound = n + 4
        coeffs = solve_coefficients(n)
        phi11 = AbstractPhiCombination.from_dict(1, {1: rat(1)})
        total = QxOperator(bound)
        for i in range(1, n + 1):
            vec = rho_abstract(i, phi11)
            for _ in range(n - i):
                vec = rho_abstract(1, vec)
            total = total + vec.to_operator(bound).scale(coeffs.c[i - 1])
        assert total == phi_n_signed_sum(n + 1, bound)


def test_bn_witness_closed_form():
    for n in range(2, 5):
        report = bn_zero_witness(n)
        assert report["closed_form_ok"]
        assert report["derivation_bracket_vanishes"]
        assert report["tuples_checked"] > 0


# -- duality, coderivations, Witt checks -------------------------------------


def test_duality_coefficient_of_x_is_one():
    for h in range(1, 7):
        assert duality_check(h, 8)


def test_coderivation_relations():
    for n in range(1, 5):
        for m in range(1, 5):
            if n != m:
                assert coderivation_check(n, m)


def test_coderivation_matrix_entries():
    d2 = coderivation_dn(2, 6)
    # x d^3/3!: x^m -> C(m,3) x^(m-2)
    assert d2.columns[5] == {3: rat(10)}
    assert d2.columns[2] == {}


def test_witt_relations():
    for n in range(0, 4):
        for m in range(0, n):
            assert witt_phi_check(n, m)
            assert witt_psi_check(n, m)
