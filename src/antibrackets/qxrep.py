"""Operators on polynomials and the universal standard-form coefficients.

A polynomial is ``{power: nonzero coeff}``, and an operator on polynomials
is its monomial rule s -> image of x^s, a function applied by
:func:`_apply`; no degree is truncated.  Three rules give the coderivation,
duality and Witt checks: ``_d(n)`` = d_n = x d^(n+1)/dx^(n+1) / (n+1)!
sends x^s to C(s, n+1) x^(s-n), ``_phi(n)`` = phi(L_n) = x d^(n+1)/dx^(n+1)
sends it to s!/(s-n-1)! x^(s-n), and ``_psi(n)`` = psi(L_n) to
(n+1-s) x^(s+n).  :func:`rho_action` takes the rule of psi to the rule of
rho_k(psi) = (psi(L_k) psi - psi phi(L_k)) / (k+1)!.
The rank-one operators Phi(n, i) sending x^i to x^(n-i)/(n-i)! span V^n.
An element of V^n is the list of its n coordinates, ``coords[i-1]`` the
coefficient of Phi(n, i); :func:`phi_operator` turns it into a monomial
rule, and :func:`rho_abstract` applies rho_k to it by an explicit two-term
rule per coordinate.  Expressing
Phi^(n+1) = sum_i (-1)^(n+1-i) Phi(n+1, i) in the induction basis yields
the universal coefficients c_i^n and the auxiliary b_n, which must vanish.
One pass builds the induction-basis systems of every degree, each from the
one before.  The top n-2 rows of the system of degree n are triangular; the
shape is checked at every n, and they are solved by forward substitution,
the last three rows by :func:`solve_linear`, the general solver, which also
takes any system without the shape.  The coordinates, the solve and the
conjectured closed formula run on Python ints and divide once per output
coefficient.  :func:`rho_action` on monomial rules is the independent
oracle for that computation.
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
    "UniversalCoefficients",
    "SingularMatrixError",
    "rho_abstract",
    "solve_coefficients",
    "coefficient_series",
    "conjecture_coefficients",
    "solve_linear",
]


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


def phi_operator(coords):
    """The monomial rule of sum_i coords[i-1] Phi(n, i), n = len(coords):
    x^i -> coords[i-1] x^(n-i)/(n-i)! for i in 1..n, x^s -> {} elsewhere."""
    n = len(coords)
    columns = {
        i: {n - i: c * rat(1, factorial(n - i))}
        for i, c in enumerate(coords, 1) if c
    }
    return lambda s: columns.get(s, {})


def rho_action(k: int, psi):
    """The monomial rule of rho_k(psi) for the monomial rule psi:
    (x^k/k! - x^(k+1) d/dx /(k+1)!) psi - psi d_k, which is
    (psi(L_k) psi - psi phi(L_k)) / (k+1)!.  Nothing is truncated."""
    if k < 1:
        raise ValueError("k must be >= 1")
    left, right = _psi(k), _phi(k)
    scale = rat(1, factorial(k + 1))
    return lambda s: _lincomb((
        (scale, _apply(left, psi(s))),
        (-scale, _apply(psi, right(s))),
    ))


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


def bn_zero_witness(n: int) -> bool:
    """Whether rho_1^(n-2)(Phi(2,2)_d/dx) meets its product-of-binomials
    closed form on the (at least one) monomial tuples of positive degrees,
    and Phi^(n+1) of the derivation d/dx vanishes.

    Builds the one-even-generator commutative algebra and realizes
    Phi(2,2)_f = mu_0 insertion (f insertion mu_1) for f = d/dx.
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
    for tup in canonical_tuples(sig, n):
        exponents = [m[0][0] for m in tup]
        if any(a < 1 for a in exponents):
            continue
        total = sum(exponents)
        expected = sig.monomial_element(((total - 1,), ()), prefactor * total)
        if op.value(tup) != expected:
            return False
        checked += 1
    return checked > 0 and is_zero_op(phi_direct_op(partial, n + 1))


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


def witt_check(n: int, m: int) -> bool:
    """[A_n, A_m] = (n-m) A_(n+m) on x^s for s <= 10, for both A_n = phi(L_n)
    = x d^(n+1) and A_n = psi(L_n): x^s -> (n + 1 - s) x^(n+s)."""
    return (_commutator_relation(_phi, n, m, n - m, 10)
            and _commutator_relation(_psi, n, m, n - m, 10))


def rho_coordinates_check(k: int, n: int) -> bool:
    """rho_k of each Phi(n, i) by :func:`rho_action` equals the monomial rule
    of its :func:`rho_abstract` coordinates, on x^s for s <= n+k+3."""
    for i in range(n):
        unit = [int(j == i) for j in range(n)]
        lhs = rho_action(k, phi_operator(unit))
        rhs = phi_operator(rho_abstract(k, unit))
        if any(lhs(s) != rhs(s) for s in range(n + k + 4)):
            return False
    return True


def rho_bracket_check(n: int, m: int, psi) -> bool:
    """[rho(l_n), rho(l_m)] psi = mu_bracket_factor(n, m) rho(l_(n+m)) psi for
    the monomial rule psi, on x^s for s <= 12."""
    nm = rho_action(n, rho_action(m, psi))
    mn = rho_action(m, rho_action(n, psi))
    top = rho_action(n + m, psi)
    factor = mu_bracket_factor(n, m)
    return not any(
        _lincomb(((1, nm(s)), (-1, mn(s)), (-factor, top(s))))
        for s in range(13)
    )
