from __future__ import annotations

from itertools import islice, permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from antibrackets import qxrep
from antibrackets.combinatorics import mu_bracket_factor
from antibrackets.qxrep import (
    SingularMatrixError,
    coefficient_series,
    conjecture_coefficients,
    phi_operator,
    rho_abstract,
    rho_action,
    rho_bracket_check,
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


def test_rho_abstract_reads_one_bounded_factor_table_per_shape():
    # the term-by-term rule with its binomials computed per coordinate
    def reference(k, coords):
        n = len(coords)
        out = [0] * (n + k)
        for i, c in enumerate(coords, 1):
            out[i - 1] += c * (comb(n - i + k, k) - comb(n - i + k, k + 1))
            out[i + k - 1] -= c * comb(k + i, k + 1)
        return out

    for k in range(1, 6):
        for n in range(1, 9):
            coords = [(-1) ** i * (i + 1) if i % 3 else 0 for i in range(n)]
            assert rho_abstract(k, coords) == reference(k, coords), (k, n)
    assert qxrep._rho_factors.cache_info().maxsize == qxrep.SHAPE_CACHE_SIZE


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


def _solve_linear_rational(matrix, rhs):
    """Reference: Gauss-Jordan on rationals, pivot row normalised to 1; a
    zero entry of the pivot row leaves the entry it would update as it is."""
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
                aug[r] = [v - factor * w if w else v
                          for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


# About a third of the entries are zero (so pivots need row swaps); the rest
# are ints or rationals.
_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(rat, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def _linear_systems(draw):
    n = draw(st.integers(1, 6))  # 720 terms in the reference determinant
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 9)) == 0:
            rows.append(list(draw(st.sampled_from(rows))))  # singular
        else:
            rows.append(draw(st.lists(_entries, min_size=n, max_size=n)))
    return rows, draw(st.lists(_entries, min_size=n, max_size=n))


def _leibniz_det(matrix):
    """Reference determinant: the sum over permutations, signed by inversions."""
    n = len(matrix)
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        * prod(matrix[r][c] for r, c in enumerate(p))
        for p in permutations(range(n))
    )


@settings(max_examples=100, deadline=None)
@given(_linear_systems())
def test_reference_solver_solves_or_raises(system):
    # the reference every solve below is compared with: it solves each
    # system whose determinant is nonzero, and refuses the others
    matrix, rhs = system
    try:
        solution = _solve_linear_rational(matrix, rhs)
    except SingularMatrixError:
        assert _leibniz_det(matrix) == 0
        return
    assert _leibniz_det(matrix) != 0
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, solution)) == b


@st.composite
def _degree_one_systems(draw):
    """2x2 int systems; about a third are singular, the second row a
    multiple of the first."""
    entries = st.integers(-9, 9)
    pair = st.lists(entries, min_size=2, max_size=2)
    first = draw(pair)
    if draw(st.integers(0, 2)):
        second = draw(pair)
    else:
        k = draw(entries)
        second = [k * v for v in first]
    return [first, second], draw(pair)


@settings(max_examples=200, deadline=None)
@given(_degree_one_systems())
def test_degree_one_step_matches_reference(system):
    matrix, target = system
    try:
        expected = _solve_linear_rational(matrix, target)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match="degree 1"):
            qxrep._induction_solution(1, matrix, target)
        return
    assert qxrep._induction_solution(1, matrix, target) == expected


# -- universal coefficients --------------------------------------------------


def test_low_degree_coefficients_match_bullet_formulas():
    assert coefficient_series(5) == {
        1: (rat(-1),),
        2: (rat(1, 2), rat(1, 2)),
        3: (rat(-1, 6), rat(-1, 2), rat(-1)),
        4: (rat(1, 30), rat(1, 5), rat(1), rat(3)),
        5: (rat(-1, 270), rat(-1, 27), rat(-1, 3), rat(-7, 3), rat(-28, 3)),
    }


def _recording_cramer(monkeypatch):
    """Route qxrep's calls of its Cramer step ``_cramer`` through a recorder
    of their inputs."""
    systems = []
    step = qxrep._cramer

    def recording(columns, rhs):
        systems.append((columns, rhs))
        return step(columns, rhs)

    monkeypatch.setattr(qxrep, "_cramer", recording)
    return systems


def test_induction_basis_matrix_holds_ints(monkeypatch):
    systems = _recording_cramer(monkeypatch)
    coefficient_series(7)
    # degree 1 is the whole 2x2 system, every later one a 3x3 tail
    assert [len(rhs) for _, rhs in systems] == [2] + [3] * 6
    for columns, rhs in systems:
        assert all(type(v) is int for column in columns for v in column)
        assert all(type(v) is int for v in rhs)


def test_closed_form_tail_matches_solve_linear(monkeypatch):
    systems = _recording_cramer(monkeypatch)
    coefficient_series(60)
    monkeypatch.undo()
    # degree 1 is the 2x2 system, degrees 2..60 the 3x3 tails
    assert [len(rhs) for _, rhs in systems] == [2] + [3] * 59
    for columns, rhs in systems[1:]:
        numerators, det = qxrep._cramer(columns, rhs)
        rows = [list(row) for row in zip(*columns)]
        assert [rat(v, det) for v in numerators] == _solve_linear_rational(rows, rhs)


def test_singular_tail_raises():
    with pytest.raises(SingularMatrixError):
        qxrep._cramer([[1, 2, 3], [2, 4, 6], [0, 1, 5]], [1, 0, 2])
    # column 0 zero in the tail rows too: the shape holds, the system is singular
    n = 6
    matrix, target = next(islice(qxrep._induction_systems(), n - 1, None))
    matrix = [[0, *row[1:]] for row in matrix]
    assert qxrep._triangular_shape(n, matrix)
    with pytest.raises(SingularMatrixError):
        _solve_linear_rational(matrix, target)
    with pytest.raises(SingularMatrixError):
        qxrep._induction_solution(n, matrix, target)


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
        # the triangular solve agrees with the system solved in its own order
        solution = _solve_linear_rational(matrix, target)
        assert series[n] == tuple(solution[:n]) and solution[n] == 0


def _reordered_solve(n, matrix, target):
    """Reference: the rational solver on the whole system, rows n-3..0, n-2,
    n-1, n and columns 2..n-1, 0, 1, n, so that the anti-triangular block
    leads."""
    cols = [*range(2, n), *range(min(n, 2)), n]
    rows = [*range(n - 3, -1, -1), *range(max(n - 2, 0), n + 1)]
    solution = dict(zip(cols, _solve_linear_rational(
        [[matrix[r][c] for c in cols] for r in rows], [target[r] for r in rows])))
    return tuple(solution[i] for i in range(n)), solution[n]


def test_triangular_solve_matches_reordered_solve_linear(monkeypatch):
    systems = list(zip(range(1, 61), qxrep._induction_systems()))
    steps = _recording_cramer(monkeypatch)
    series = coefficient_series(60)
    # degree 1 is the 2x2 step; every later system has the shape, and its
    # 3x3 tail is solved in closed form
    assert [len(rhs) for _, rhs in steps] == [2] + [3] * 59
    monkeypatch.undo()
    for n, (matrix, target) in systems:
        assert qxrep._triangular_shape(n, matrix) == (n > 1)
        assert _reordered_solve(n, matrix, target) == (series[n], 0)


@pytest.mark.parametrize("n, r, c, value", [
    (6, 0, 0, 5),  # columns 0, 1 and n of the top rows must be zero
    (6, 1, 1, 5),
    (6, 2, 6, 5),
    (6, 1, 5, 5),  # right of the pivot column n-1-r
    (9, 3, 6, 5),
    (7, 2, 4, 0),  # the pivot itself must be nonzero (the system is singular)
    (3, 0, 2, 0),  # degree 3 has one triangular row
])
def test_system_without_the_shape_is_refused(n, r, c, value):
    matrix, target = next(islice(qxrep._induction_systems(), n - 1, None))
    matrix = [list(row) for row in matrix]
    assert matrix[r][c] != value
    matrix[r][c] = value
    assert not qxrep._triangular_shape(n, matrix)
    with pytest.raises(SingularMatrixError,
                       match=f"degree {n} lacks the triangular shape"):
        qxrep._induction_solution(n, matrix, target)


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
        expected = _solve_linear_rational(matrix, target)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            qxrep._induction_solution(n, matrix, target)
        return
    assert qxrep._induction_solution(n, matrix, target) == expected


def test_auxiliary_coefficient_vanishes():
    for n, system in zip(range(1, 9), qxrep._induction_systems()):
        assert qxrep._induction_solution(n, *system)[n] == 0


def test_nonzero_auxiliary_coefficient_raises(monkeypatch):
    solve = qxrep._induction_solution

    def perturbed(n, matrix, target):
        *c, b = solve(n, matrix, target)
        return [*c, b + (n == 3)]

    monkeypatch.setattr(qxrep, "_induction_solution", perturbed)
    assert len(coefficient_series(2)) == 2
    with pytest.raises(ArithmeticError, match="b_3 = 1 != 0"):
        coefficient_series(3)


def test_conjectured_formula_matches_solver():
    series = coefficient_series(8)
    for n in range(2, 9):
        assert conjecture_coefficients(n) == list(series[n])


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
    series = coefficient_series(4)
    for n in (2, 3, 4):
        terms = []
        for i in range(1, n + 1):
            vec = rho_abstract(i, [rat(1)])
            for _ in range(n - i):
                vec = rho_abstract(1, vec)
            terms.append((series[n][i - 1], phi_operator(vec)))
        total = [qxrep._lincomb((c, rule(s)) for c, rule in terms)
                 for s in range(n + 5)]
        signed = [(-1) ** (n + 1 - i) for i in range(1, n + 2)]
        assert total == _columns(phi_operator(signed), n + 4)


def test_coderivation_matrix_entries():
    d2 = qxrep._d(2)
    # x d^3/3!: x^m -> C(m,3) x^(m-2)
    assert d2(5) == {3: 10}
    assert d2(2) == {}

