"""Operators on polynomials and the universal standard-form coefficients.

A polynomial is ``{power: nonzero coeff}``, and an operator on polynomials
is a monomial rule s -> image of x^s, applied by :func:`_apply`; a
:class:`QxOperator` stores the images of x^0..x^bound of one that kills
constants.  Three rules give the coderivation, duality and Witt checks:
``_d(n)`` = d_n = x d^(n+1)/dx^(n+1) / (n+1)! sends x^s to
C(s, n+1) x^(s-n), ``_phi(n)`` = phi(L_n) = x d^(n+1)/dx^(n+1) sends it to
s!/(s-n-1)! x^(s-n), and ``_psi(n)`` = psi(L_n) to (n+1-s) x^(s+n).
:func:`rho_action` is rho_k(psi) = (psi(L_k) psi - psi phi(L_k)) / (k+1)!.
The rank-one operators Phi(n, i) sending x^i to x^(n-i)/(n-i)! span V^n.
An element of V^n is the list of its n coordinates, ``coords[i-1]`` the
coefficient of Phi(n, i); :func:`phi_operator` turns it into a
:class:`QxOperator`, and :func:`rho_abstract` applies rho_k to it by an
explicit two-term rule per coordinate.  Expressing
Phi^(n+1) = sum_i (-1)^(n+1-i) Phi(n+1, i) in the induction basis yields
the universal coefficients c_i^n and the auxiliary b_n, which must vanish.
One pass builds the induction-basis systems of every degree, each from the
one before.  The top n-2 rows of the system of degree n are triangular; the
shape is checked at every n, and they are solved by forward substitution,
the last three rows by :func:`solve_linear`, the general solver, which also
takes any system without the shape.  The coordinates, the solve and the
conjectured closed formula run on Python ints and divide once per output
coefficient.  :func:`rho_action` on truncated polynomials is the
independent oracle for that computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, factorial, gcd, lcm, perm
from operator import mul

from .brackets import phi_direct_op
from .combinatorics import koszul_numbers_recursive, mu_bracket_factor
from .multilinear import (
    canonical_tuples,
    derivation_endo,
    is_zero_op,
    mu,
    nr_product,
    rho,
)
from .rational import rat
from .superalgebra import Signature

__all__ = [
    "QxOperator",
    "UniversalCoefficients",
    "DegreeOverflowError",
    "SingularMatrixError",
    "phi_ni",
    "phi_operator",
    "rho_action",
    "rho_abstract",
    "solve_coefficients",
    "coefficient_series",
    "conjecture_formula",
    "conjecture_coefficients",
    "coefficient_table_entry",
    "bn_zero_witness",
    "coderivation_check",
    "duality_check",
    "witt_phi_check",
    "witt_psi_check",
    "rho_bracket_check",
    "solve_linear",
]


class DegreeOverflowError(Exception):
    """A polynomial operation left the degree truncation."""


class SingularMatrixError(Exception):
    """The linear system for the induction-basis coordinates degenerated."""


def _monomial(power: int, coeff) -> dict:
    """coeff x^power as a polynomial: {} when coeff is 0."""
    return {power: coeff} if coeff else {}


def _lincomb(terms) -> dict:
    """sum c * poly over the (c, poly) pairs, as {power: nonzero coeff}."""
    out = {}
    for c, poly in terms:
        for p, v in poly.items():
            out[p] = out.get(p, 0) + c * v
    return {p: v for p, v in out.items() if v}


def _apply(rule, poly: dict) -> dict:
    """Image of poly under the operator with monomial rule s -> image of x^s."""
    return _lincomb((c, rule(s)) for s, c in poly.items())


def _d(n: int):
    """d_n = x d^(n+1)/dx^(n+1) / (n+1)!: x^s -> C(s, n+1) x^(s-n)."""
    return lambda s: _monomial(s - n, comb(s, n + 1))


def _phi(n: int):
    """phi(L_n) = x d^(n+1)/dx^(n+1): x^s -> s!/(s-n-1)! x^(s-n)."""
    return lambda s: _monomial(s - n, perm(s, n + 1))


def _psi(n: int):
    """psi(L_n): x^s -> (n+1-s) x^(s+n)."""
    return lambda s: _monomial(s + n, n + 1 - s)


class QxOperator:
    """Linear operator on polynomials of degree <= bound, killing constants.

    ``columns[s]`` is the image of x^s.  The constructor takes
    ``{s: polynomial}``, a missing s mapping to zero, so ``QxOperator(bound)``
    is the zero operator.  Killing constants means columns[0] = {}.
    """

    __slots__ = ("bound", "columns")

    def __init__(self, bound: int, columns=None):
        self.bound = bound
        self.columns = [{} for _ in range(bound + 1)]
        for s, poly in (columns or {}).items():
            poly = {p: c for p, c in poly.items() if c}
            if min([s, *poly]) < 0:
                raise ValueError(f"negative power in x^{s} -> {poly}")
            if max([s, *poly]) > bound:
                raise DegreeOverflowError(f"x^{s} -> {poly} exceeds bound {bound}")
            self.columns[s] = poly
        if self.columns[0]:
            raise ValueError("operator must vanish on constants")

    def apply(self, poly: dict) -> dict:
        return _apply(self.columns.__getitem__, poly)

    def __add__(self, other: "QxOperator") -> "QxOperator":
        self._check(other)
        return QxOperator(self.bound, {
            s: _lincomb(((1, a), (1, b)))
            for s, (a, b) in enumerate(zip(self.columns, other.columns))
        })

    def __sub__(self, other: "QxOperator") -> "QxOperator":
        return self + other.scale(-1)

    def scale(self, c) -> "QxOperator":
        return QxOperator(self.bound, {
            s: {p: c * v for p, v in col.items()} for s, col in enumerate(self.columns)
        })

    def _check(self, other):
        if self.bound != other.bound:
            raise ValueError("bound mismatch")

    def __eq__(self, other):
        if not isinstance(other, QxOperator):
            return NotImplemented
        return self.bound == other.bound and self.columns == other.columns

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __repr__(self):
        return f"QxOperator(bound={self.bound})"


def phi_operator(coords, bound: int) -> QxOperator:
    """sum_i coords[i-1] Phi(n, i), n = len(coords), on degrees <= bound."""
    n = len(coords)
    return QxOperator(bound, {
        i: {n - i: c * rat(1, factorial(n - i))}
        for i, c in enumerate(coords, 1) if c
    })


def phi_ni(n: int, i: int, bound: int) -> QxOperator:
    """The rank-one operator x^i -> x^(n-i)/(n-i)!, zero elsewhere."""
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    return phi_operator([int(j == i) for j in range(1, n + 1)], bound)


def rho_action(k: int, psi: QxOperator) -> QxOperator:
    """(x^k/k! - x^(k+1) d/dx /(k+1)!) psi - psi d_k, which is
    (psi(L_k) psi - psi phi(L_k)) / (k+1)!.

    Raises DegreeOverflowError when a column's top power p has p + k above
    the bound, also where the factor k+1-p of psi(L_k) kills that term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = psi.bound
    for col in psi.columns:
        if col and max(col) + k > bound:
            raise DegreeOverflowError(f"degree {max(col) + k} exceeds bound {bound}")
    left, right = _psi(k), _phi(k)
    scale = rat(1, factorial(k + 1))
    return QxOperator(bound, {
        s: _lincomb(((scale, _apply(left, col)), (-scale, psi.apply(right(s)))))
        for s, col in enumerate(psi.columns)
    })


def rho_abstract(k: int, coords: list) -> list:
    """rho_k on V^n in coordinates: the n+k coordinates of rho_k of the
    element with coordinates ``coords``, n = len(coords).

    Term by term, rho_k Phi(n, i) = (C(n-i+k, k) - C(n-i+k, k+1)) Phi(n+k, i)
    - C(k+i, k+1) Phi(n+k, i+k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(coords)
    out = [0] * (n + k)
    for i, c in enumerate(coords, 1):
        if c:
            m = n - i + k
            out[i - 1] += c * (comb(m, k) - comb(m, k + 1))
            out[i + k - 1] -= c * comb(k + i, k + 1)
    return out


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_linear(matrix, rhs):
    """Exact Gauss-Jordan elimination; raises SingularMatrixError if degenerate.

    Entries may be ints or rationals.  Each augmented row is scaled to
    integers by the lcm of its denominators and kept primitive (divided by
    the gcd of its entries); eliminating with pivot p replaces a row with
    entry f by (p/g) row - (f/g) pivot_row, g = gcd(p, f), and skips rows
    whose entry is already 0.  The only divisions are one per unknown at the
    end, x_r = aug[r][n] / aug[r][r].
    """
    n = len(matrix)
    aug = []
    for r, row in enumerate(matrix):
        row = [*row, rhs[r]]
        scale = lcm(*[v.denominator for v in row])
        aug.append(_primitive([v.numerator * (scale // v.denominator) for v in row]))
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if aug[r][col]), None
        )
        if pivot is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                aug[r] = _primitive([a * v - b * w for v, w in zip(aug[r], prow)])
    return [rat(aug[r][n], aug[r][r]) for r in range(n)]


@dataclass(frozen=True)
class UniversalCoefficients:
    """The c_1^n..c_n^n of the standard form, plus the auxiliary b_n."""

    degree: int
    c: tuple
    b: object


def _induction_systems():
    """Yield the int system (matrix, target) of degree n for n = 1, 2, ....

    The columns are rho_1^(n-i) rho_i (Phi(1,1)) for i = 1..n and
    rho_1^(n-1)(Phi(2,2)), each the list of its n+1 coordinates in V^(n+1),
    and the target is Phi^(n+1) = sum_i (-1)^(n+1-i) Phi(n+1, i).  Degree n
    applies rho_1 to each column of degree n-1 and adds rho_n (Phi(1,1)):
    n+1 :func:`rho_abstract` calls.
    """
    columns = [rho_abstract(1, [1])]
    extra = [0, 1]
    n = 1
    while True:
        matrix = [list(row) for row in zip(*columns, extra)]
        yield matrix, [(-1) ** (n + 1 - i) for i in range(1, n + 2)]
        n += 1
        columns = [rho_abstract(1, c) for c in columns]
        columns.append(rho_abstract(n, [1]))
        extra = rho_abstract(1, extra)


def _triangular_shape(n: int, matrix) -> bool:
    """Whether each row r = 0..n-3 is zero in columns 0, 1 and n and right of
    column n-1-r, and nonzero at column n-1-r."""
    return all(
        row[n - 1 - r] and not (row[0] or row[1] or any(row[n - r:]))
        for r, row in enumerate(matrix[:n - 2])
    )


def _induction_solution(n: int, matrix, target) -> list:
    """x_0..x_n with matrix x = target, for the induction-basis system of degree n.

    When :func:`_triangular_shape` holds, checked here at every n, the rows
    r = n-3..0 give x_2..x_(n-1) in turn by forward substitution, each row's
    pivot column n-1-r being its last nonzero one; the values are ints over
    one running denominator, and a pivot's new factor rescales the stored
    ones.  x_0, x_1 and x_n then come from rows n-2, n-1 and n, a 3x3
    system for :func:`solve_linear`.  Degree 1, and any system without the
    shape, goes whole to :func:`solve_linear`.
    """
    if n < 2 or not _triangular_shape(n, matrix):
        return solve_linear(matrix, target)
    x = [0] * n  # numerators of x_2..x_(n-1) over d (of either sign)
    d = 1
    for r in range(n - 3, -1, -1):
        p = n - 1 - r
        pivot = matrix[r][p]
        s = target[r] * d - sum(map(mul, matrix[r][2:p], x[2:p]))
        g = gcd(s, pivot)
        if pivot != g:  # x_p = (s/g) / (d pivot/g)
            e = pivot // g
            x[2:p] = [v * e for v in x[2:p]]
            d *= e
        x[p] = s // g
    rows = range(n - 2, n + 1)
    c_1, c_2, b = solve_linear(
        [[matrix[r][c] * d for c in (0, 1, n)] for r in rows],
        [target[r] * d - sum(map(mul, matrix[r][2:n], x[2:])) for r in rows],
    )
    return [c_1, c_2, *(rat(v, d) for v in x[2:]), b]


def _solve_system(n: int, matrix, target) -> UniversalCoefficients:
    """The coefficients of degree n from its induction-basis system.

    Solved by :func:`_induction_solution`, which checks the triangular shape
    at every n; raises ArithmeticError when b_n != 0.
    """
    *c, b = _induction_solution(n, matrix, target)
    if b:
        raise ArithmeticError(f"auxiliary coefficient b_{n} = {b} != 0")
    return UniversalCoefficients(n, tuple(c), b)


def solve_coefficients(n: int) -> UniversalCoefficients:
    """Coefficients with Phi^(n+1) = (c_1 rho_1^n + sum_i c_i rho_1^(n-i) rho_i) Phi^1.

    Solved exactly in V^(n+1) coordinates against the induction basis of
    :func:`_induction_systems`; b_n, the coefficient of rho_1^(n-1)(Phi(2,2)),
    must vanish, else ArithmeticError.  For every degree up to N, use
    :func:`coefficient_series`, which shares the columns across degrees.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _solve_system(n, *next(islice(_induction_systems(), n - 1, None)))


def coefficient_series(N: int) -> dict:
    """{n: solve_coefficients(n)} for n = 1..N, from one pass over the systems."""
    return {n: _solve_system(n, *system)
            for n, system in zip(range(1, N + 1), _induction_systems())}


def conjecture_formula(n: int, i: int):
    """The conjectured closed form for c_i^n; see :func:`conjecture_coefficients`."""
    if n < 2 or not 1 <= i <= n:
        raise ValueError("need n >= 2 and 1 <= i <= n")
    return conjecture_coefficients(n)[i - 1]


def conjecture_coefficients(n: int) -> list:
    """The conjectured closed forms of c_1^n..c_n^n (empty products are 1).

    c_i^n = (-1)^n top(i) / sum_(h=2..n) h top(h) tail(h), with
    top(h) = prod_(j=2..h) (n(n-1) - (j-1)(j-2))/2 and
    tail(h) = prod_(j=h..n-1) (1-j)(j+2)/2.  Every factor is an integer (both
    products are even), so the products and the i-independent denominator
    are built once per n in one pass over ints, and each c_i^n is one
    division.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    top = [1, 1]  # top[h] for h = 0..n
    for j in range(2, n + 1):
        top.append(top[-1] * ((n * (n - 1) - (j - 1) * (j - 2)) // 2))
    denominator = 0
    tail = 1
    for h in range(n, 1, -1):
        denominator += h * top[h] * tail
        tail *= (2 - h) * (h + 1) // 2  # tail(h-1) = tail(h) (1-(h-1))(h+1)/2
    if not denominator:
        raise ZeroDivisionError(f"conjecture denominator vanishes at n = {n}")
    return [rat((-1) ** n * t, denominator) for t in top[1:]]


def coefficient_table_entry(n: int, i: int, coefficients=None):
    """x_i^n = (-1)^n n! c_i^n, the published normalization."""
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    if coefficients is None:
        coefficients = solve_coefficients(n)
    return rat((-1) ** n * factorial(n)) * coefficients.c[i - 1]


def bn_zero_witness(n: int) -> dict:
    """Check the closed form of rho_1^(n-2)(Phi(2,2)_d/dx) on monomial tuples.

    Builds the one-even-generator commutative algebra, realizes
    Phi(2,2)_f = mu_0 insertion (f insertion mu_1) for f = d/dx, applies
    rho_1 repeatedly, and compares against the product-of-binomials closed
    form; also confirms Phi^(n+1) of the derivation vanishes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    sig = Signature(even=1, odd=0, degree_bound=n + 2)
    partial = derivation_endo(sig)
    op = nr_product(mu(sig, 0), nr_product(partial, mu(sig, 1)))
    for _ in range(n - 2):
        op = rho(1, op)
    prefactor = (-1) ** (n - 2)
    for i in range(3, n + 1):
        prefactor *= comb(i - 1, 2)
    checked = 0
    closed_form_ok = True
    for tup in canonical_tuples(sig, n):
        exponents = [m[0][0] for m in tup]
        if any(a < 1 for a in exponents):
            continue
        total = sum(exponents)
        expected = sig.monomial_element(((total - 1,), ()), prefactor * total)
        if op.value(tup) != expected:
            closed_form_ok = False
            break
        checked += 1
    phi_vanishes = is_zero_op(phi_direct_op(partial, n + 1))
    return {
        "n": n,
        "closed_form_ok": closed_form_ok,
        "tuples_checked": checked,
        "derivation_bracket_vanishes": phi_vanishes,
    }


def coderivation_check(n: int, m: int) -> bool:
    """Bracket relation and coproduct compatibility of d_n, d_m, symbolically,
    on x^s for s <= 8."""
    if not _commutator_relation(_d, n, m, mu_bracket_factor(n, m), 8):
        return False
    # d_n is a coderivation of Delta x^s = sum_k C(s, k) x^k (x) x^(s-k):
    # Delta d_n = (d_n (x) 1 + 1 (x) d_n) Delta, on tensors {(a, b): coeff}
    d = _d(n)

    def coproduct(s):
        return {(k, s - k): comb(s, k) for k in range(s + 1)}

    def d_tensor(pair):
        a, b = pair
        return _lincomb((
            (1, {(p, b): c for p, c in d(a).items()}),
            (1, {(a, p): c for p, c in d(b).items()}),
        ))

    return all(
        _apply(coproduct, d(s)) == _apply(d_tensor, coproduct(s)) for s in range(9)
    )


def _commutator_relation(rule, n, m, factor, max_power):
    """[A_n, A_m] x^s == factor A_(n+m) x^s for every s <= max_power, where
    rule(k) is the monomial rule of A_k."""
    a_n, a_m, a_nm = rule(n), rule(m), rule(n + m)
    return not any(
        _lincomb((
            (1, _apply(a_n, a_m(s))),
            (-1, _apply(a_m, a_n(s))),
            (-factor, a_nm(s)),
        ))
        for s in range(max_power + 1)
    )


def duality_check(h: int, N: int) -> bool:
    """Coefficient of x in exp(sum K_n x d^(n+1)/dx^(n+1) /(n+1)!)(x^h) is 1.

    Each generator lowers the degree by n >= 1, so the exponential truncates
    on polynomials of degree <= N.
    """
    if not 1 <= h <= N:
        raise ValueError("need 1 <= h <= N")
    koszul = koszul_numbers_recursive(max(N - 1, 1))

    def generator_sum(s):
        return _lincomb((koszul[n], _d(n)(s)) for n in range(1, s))

    result = term = {h: rat(1)}
    k = 1
    while term := _apply(generator_sum, term):
        result = _lincomb(((1, result), (rat(1, factorial(k)), term)))
        k += 1
    return result.get(1, 0) == 1


def witt_phi_check(n: int, m: int) -> bool:
    """[phi(L_n), phi(L_m)] = (n-m) phi(L_(n+m)) with phi(L_n) = x d^(n+1),
    on x^s for s <= 10."""
    return _commutator_relation(_phi, n, m, n - m, 10)


def witt_psi_check(n: int, m: int) -> bool:
    """Same relation for psi(L_n) x^s = (n + 1 - s) x^(n+s)."""
    return _commutator_relation(_psi, n, m, n - m, 10)


def rho_bracket_check(n: int, m: int, psi: QxOperator) -> bool:
    """[rho(l_n), rho(l_m)] psi = mu_bracket_factor(n, m) rho(l_(n+m)) psi."""
    lhs = rho_action(n, rho_action(m, psi)) - rho_action(m, rho_action(n, psi))
    rhs = rho_action(n + m, psi).scale(mu_bracket_factor(n, m))
    return lhs == rhs
