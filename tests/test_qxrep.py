from __future__ import annotations

from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import qxrep
from antibrackets.combinatorics import mu_bracket_factor
from antibrackets.qxrep import (
    SingularMatrixError,
    UniversalCoefficients,
    coefficient_series,
    conjecture_coefficients,
    phi_operator,
    rho_abstract,
    rho_action,
    rho_bracket_check,
    solve_coefficients,
    solve_linear,
)
from antibrackets.rational import rat


# -- polynomial-operator realization ----------------------------------------


def _columns(rule, top):
    """The images of x^0..x^top under the monomial rule."""
    return [rule(s) for s in range(top + 1)]


def test_phi_ni_images():
    op = phi_operator([0, 1, 0])  # Phi(3, 2): x^2 -> x
    assert op(2) == {1: rat(1)}
    assert op(1) == {}
    assert op(3) == {}


def test_apply_and_compose():
    # x d^2/2: x^m -> C(m,2) x^(m-1)
    d1 = qxrep._d(1)
    assert qxrep._apply(d1, {3: rat(1)}) == {2: rat(3)}  # x^3
    assert qxrep._apply(d1, qxrep._apply(d1, {5: rat(1)})) == {3: rat(10 * 6)}


@pytest.mark.parametrize("k, p", [
    (2, 3),  # p = k+1: psi(L_k) kills x^p, so x^1 goes to zero
    (3, 2),
    (1, 4),
])
def test_rho_action_is_exact_on_a_one_column_operator(k, p):
    def psi(s):
        return {p: 1} if s == 1 else {}

    expected = [{} for _ in range(p + k + 3)]
    expected[1] = qxrep._monomial(p + k, rat(k + 1 - p, factorial(k + 1)))
    expected[k + 1] = {p: -1}
    assert _columns(rho_action(k, psi), p + k + 2) == expected


@pytest.mark.parametrize("rule, factor", [
    (qxrep._d, mu_bracket_factor),
    (qxrep._phi, lambda n, m: n - m),
    (qxrep._psi, lambda n, m: n - m),
], ids=["d", "phi", "psi"])
def test_commutator_relation_fails_for_a_wrong_factor(rule, factor):
    for n, m in ((1, 0), (2, 1), (3, 1)):
        assert qxrep._commutator_relation(rule, n, m, factor(n, m), 8)
        assert not qxrep._commutator_relation(rule, n, m, factor(n, m) + 1, 8)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0), st.integers(-9, 9),
                  st.builds(rat, st.integers(-9, 9), st.integers(2, 12))),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 3),
)
def test_rho_abstract_matches_matrix_on_combinations(coords, k):
    top = len(coords) + k
    lhs = phi_operator(rho_abstract(k, coords))
    rhs = rho_action(k, phi_operator(coords))
    assert _columns(lhs, top) == _columns(rhs, top)
    assert lhs(0) == rhs(0) == {}  # both kill constants


@pytest.mark.parametrize("reject", [
    lambda: rho_abstract(0, [1]),
    lambda: rho_action(0, phi_operator([1, 0])),
], ids=["rho_abstract", "rho_action"])
def test_rho_abstract_rejects_k_below_one(reject):
    with pytest.raises(ValueError, match="k must be >= 1"):
        reject()


def test_rho_bracket_check_fails_for_a_wrong_factor(monkeypatch):
    monkeypatch.setattr(qxrep, "mu_bracket_factor",
                        lambda n, m: mu_bracket_factor(n, m) + 1)
    psi = phi_operator([1, 0])  # Phi(2, 1)
    for n, m in ((2, 1), (3, 1), (3, 2)):
        assert not rho_bracket_check(n, m, psi), (n, m)


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
    columns = []
    for i in range(1, n + 1):
        vec = rho_abstract(i, [1])
        for _ in range(n - i):
            vec = rho_abstract(1, vec)
        columns.append(vec)
    extra = [0, 1]
    for _ in range(n - 1):
        extra = rho_abstract(1, extra)
    columns.append(extra)
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
        # the triangular solve agrees with the system solved in its own order
        solution = solve_linear(matrix, target)
        assert series[n].c == tuple(solution[:n]) and series[n].b == solution[n]


def _reordered_solve(n, matrix, target):
    """Reference: solve_linear on the whole system, rows n-3..0, n-2, n-1, n
    and columns 2..n-1, 0, 1, n, so that the anti-triangular block leads."""
    cols = [*range(2, n), *range(min(n, 2)), n]
    rows = [*range(n - 3, -1, -1), *range(max(n - 2, 0), n + 1)]
    solution = dict(zip(cols, solve_linear(
        [[matrix[r][c] for c in cols] for r in rows], [target[r] for r in rows])))
    b = solution.pop(n)
    return UniversalCoefficients(n, tuple(solution[i] for i in range(n)), b)


def _recording_solve_linear(monkeypatch):
    """Route qxrep's solve_linear calls through a recorder of the row counts."""
    sizes = []

    def recording_solve(matrix, rhs):
        sizes.append(len(matrix))
        return solve_linear(matrix, rhs)

    monkeypatch.setattr(qxrep, "solve_linear", recording_solve)
    return sizes


def test_triangular_solve_matches_reordered_solve_linear(monkeypatch):
    systems = list(zip(range(1, 61), qxrep._induction_systems()))
    sizes = _recording_solve_linear(monkeypatch)
    series = coefficient_series(60)
    # degree 1 is solved whole; every later system has the shape
    assert sizes == [2] + [3] * 59
    monkeypatch.undo()
    for n, (matrix, target) in systems:
        assert qxrep._triangular_shape(n, matrix) == (n > 1)
        assert series[n] == _reordered_solve(n, matrix, target)


@pytest.mark.parametrize("n, r, c, value", [
    (6, 0, 0, 5),  # columns 0, 1 and n of the top rows must be zero
    (6, 1, 1, 5),
    (6, 2, 6, 5),
    (6, 1, 5, 5),  # right of the pivot column n-1-r
    (9, 3, 6, 5),
    (7, 2, 4, 0),  # the pivot itself must be nonzero (the system is singular)
])
def test_system_without_the_shape_goes_whole_to_solve_linear(
        monkeypatch, n, r, c, value):
    matrix, target = next(islice(qxrep._induction_systems(), n - 1, None))
    matrix = [list(row) for row in matrix]
    assert matrix[r][c] != value
    matrix[r][c] = value
    assert not qxrep._triangular_shape(n, matrix)
    sizes = _recording_solve_linear(monkeypatch)
    try:
        expected = solve_linear(matrix, target)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            qxrep._induction_solution(n, matrix, target)
    else:
        assert qxrep._induction_solution(n, matrix, target) == expected
    assert sizes == [n + 1]


@st.composite
def _triangular_systems(draw):
    """Int systems with the shape of the induction-basis systems, whose
    pivots bring new denominators (so stored values are rescaled)."""
    n = draw(st.integers(2, 8))
    entries = st.integers(-9, 9)
    matrix = [[0] * (n + 1) for _ in range(n + 1)]
    for r in range(n + 1):
        cols = range(2, n - r) if r <= n - 3 else range(n + 1)
        for c in cols:
            matrix[r][c] = draw(entries)
        if r <= n - 3:
            matrix[r][n - 1 - r] = draw(entries.filter(bool))
    return n, matrix, draw(st.lists(entries, min_size=n + 1, max_size=n + 1))


@settings(max_examples=120, deadline=None)
@given(_triangular_systems())
def test_triangular_solve_matches_solve_linear_on_shaped_systems(system):
    n, matrix, target = system
    assert qxrep._triangular_shape(n, matrix)
    try:
        expected = solve_linear(matrix, target)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            qxrep._induction_solution(n, matrix, target)
        return
    assert qxrep._induction_solution(n, matrix, target) == expected


def test_auxiliary_coefficient_vanishes():
    for n in range(1, 9):
        assert solve_coefficients(n).b == 0


def test_conjectured_formula_matches_solver():
    for n in range(2, 9):
        assert conjecture_coefficients(n) == list(solve_coefficients(n).c)


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
        row = conjecture_coefficients(n)
        assert row == [_conjecture_formula_fraction(n, i)
                       for i in range(1, n + 1)]


def test_conjecture_coefficients_rejects_n_below_two():
    with pytest.raises(ValueError, match="need n >= 2"):
        conjecture_coefficients(1)


def test_signed_sum_solves_standard_form():
    # reassemble Phi^(n+1) from the solved coordinates in the matrix model
    for n in (2, 3, 4):
        coeffs = solve_coefficients(n)
        terms = []
        for i in range(1, n + 1):
            vec = rho_abstract(i, [rat(1)])
            for _ in range(n - i):
                vec = rho_abstract(1, vec)
            terms.append((coeffs.c[i - 1], phi_operator(vec)))
        total = [qxrep._lincomb((c, rule(s)) for c, rule in terms)
                 for s in range(n + 5)]
        signed = [(-1) ** (n + 1 - i) for i in range(1, n + 2)]
        assert total == _columns(phi_operator(signed), n + 4)


def test_coderivation_matrix_entries():
    d2 = qxrep._d(2)
    # x d^3/3!: x^m -> C(m,3) x^(m-2)
    assert d2(5) == {3: 10}
    assert d2(2) == {}

