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
the universal coefficients c_i^n and the auxiliary b_n, which must vanish;
:func:`coefficient_series` gives each degree's c_i^n as a plain tuple and
raises ArithmeticError on a nonzero b_n.  One pass builds the
induction-basis systems of every degree, each from the one before, and
each is solved on one path.  Degree 1 is a 2x2 system, solved by Cramer's
rule.  From degree 2 on, the top n-2 rows of the system of degree n are
triangular: the shape is checked at every n, those rows are solved by
forward substitution and the last three by Cramer's rule; a system without
the shape raises SingularMatrixError.  The coordinates, the
solve and the conjectured closed formula run on Python ints and divide once
per output coefficient.  :func:`rho_action` on monomial rules is the
independent oracle for that computation.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, gcd, perm
from operator import mul

from .brackets import differential_order_check
from .combinatorics import koszul_numbers_recursive, mu_bracket_factor
from .multilinear import (
    SHAPE_CACHE_SIZE,
    _index_tuples,
    derivation_endo,
    mu,
    nr_product,
    rho_combination,
)
from .rational import rat
from .superalgebra import Signature

__all__ = [
    "SingularMatrixError",
    "rho_abstract",
    "coefficient_series",
    "conjecture_coefficients",
    "conjecture_numerators",
]


class SingularMatrixError(Exception):
    """The linear system for the induction-basis coordinates degenerated: a
    zero determinant, or a system without the triangular shape."""


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


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _rho_factors(k: int, n: int) -> list:
    """The two binomial factors of rho_k Phi(n, i) for i = 1..n, as pairs
    (C(n-i+k, k) - C(n-i+k, k+1), C(k+i, k+1)); see :func:`rho_abstract`."""
    return [(comb(n - i + k, k) - comb(n - i + k, k + 1), comb(k + i, k + 1))
            for i in range(1, n + 1)]


def rho_abstract(k: int, coords: list) -> list:
    """rho_k on V^n in coordinates: the n+k coordinates of rho_k of the
    element with coordinates ``coords``, n = len(coords).

    Term by term, rho_k Phi(n, i) = (C(n-i+k, k) - C(n-i+k, k+1)) Phi(n+k, i)
    - C(k+i, k+1) Phi(n+k, i+k); the factors are one cached table per (k, n).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(coords)
    out = [0] * (n + k)
    for i, (c, (stay, shift)) in enumerate(zip(coords, _rho_factors(k, n))):
        if c:
            out[i] += c * stay
            out[i + k] -= c * shift
    return out


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


def _det(columns) -> int:
    """The determinant of the 2x2 or 3x3 int matrix with these columns, by
    cofactor expansion along the first column, written out in closed form."""
    if len(columns) == 2:
        (a, c), (b, d) = columns
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = columns
    return a * (e * i - h * f) - b * (d * i - g * f) + c * (d * h - g * e)


def _cramer(columns, rhs):
    """Numerators of the solution of the 2x2 or 3x3 int system with these
    columns and right-hand side, by Cramer's rule, and their common
    denominator, the determinant; raises SingularMatrixError when it is 0."""
    det = _det(columns)
    if not det:
        raise SingularMatrixError(f"{len(rhs)}x{len(rhs)} system has determinant 0")
    return [_det(columns[:i] + [rhs] + columns[i + 1:])
            for i in range(len(columns))], det


def _induction_solution(n: int, matrix, target) -> list:
    """x_0..x_n with matrix x = target, for the induction-basis system of degree n.

    Degree 1 is a 2x2 system, solved by Cramer's rule (:func:`_cramer`).
    From degree 2 on, :func:`_triangular_shape` is checked at every n, and a
    system without it raises SingularMatrixError.  The rows r = n-3..0 give
    x_2..x_(n-1) in turn by forward substitution, each row's pivot column
    n-1-r being its last nonzero one; the values are ints over one running
    denominator d, and a pivot's new factor rescales the stored ones.  x_0,
    x_1 and x_n then come from rows n-2, n-1 and n, a 3x3 int system in
    columns 0, 1 and n whose right-hand side is over d, solved by
    :func:`_cramer` too.  Either way there is one division per unknown.
    """
    if n == 1:
        try:
            numerators, det = _cramer(list(zip(*matrix)), target)
        except SingularMatrixError as e:
            raise SingularMatrixError(f"degree 1: {e}") from None
        return [rat(v, det) for v in numerators]
    if not _triangular_shape(n, matrix):
        raise SingularMatrixError(
            f"the system of degree {n} lacks the triangular shape")
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
    tail = matrix[n - 2:]
    (c_1, c_2, b), det = _cramer(
        [[row[c] for row in tail] for c in (0, 1, n)],
        [t * d - sum(map(mul, row[2:n], x[2:]))
         for row, t in zip(tail, target[n - 2:])],
    )
    det *= d
    return [rat(c_1, det), rat(c_2, det), *(rat(v, d) for v in x[2:]),
            rat(b, det)]


def coefficient_series(N: int) -> dict:
    """{n: (c_1^n, ..., c_n^n)} for n = 1..N, each system of one pass over
    :func:`_induction_systems` solved by :func:`_induction_solution`; b_n,
    the coefficient of rho_1^(n-1)(Phi(2,2)), must vanish, else
    ArithmeticError."""
    series = {}
    for n, system in zip(range(1, N + 1), _induction_systems()):
        *c, b = _induction_solution(n, *system)
        if b:
            raise ArithmeticError(f"auxiliary coefficient b_{n} = {b} != 0")
        series[n] = tuple(c)
    return series


def conjecture_numerators(n: int) -> tuple:
    """The conjectured c_1^n..c_n^n as ints over one denominator: the pair
    (numerators, denominator) of :func:`conjecture_coefficients`, unreduced.

    c_i^n = (-1)^n top(i) / sum_(h=2..n) h top(h) tail(h), with
    top(h) = prod_(j=2..h) (n(n-1) - (j-1)(j-2))/2 and
    tail(h) = prod_(j=h..n-1) (1-j)(j+2)/2 (empty products are 1).  Every
    factor is an integer (both products are even), so the products and the
    i-independent denominator are built once per n in one pass over ints.
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
    return [(-1) ** n * t for t in top[1:]], denominator


def conjecture_coefficients(n: int) -> list:
    """The conjectured closed forms of c_1^n..c_n^n, each one division of
    :func:`conjecture_numerators`: the public rational form of the
    conjecture, which its acceptance test compares with the solved values."""
    numerators, denominator = conjecture_numerators(n)
    return [rat(t, denominator) for t in numerators]


def bn_zero_witness(n: int) -> bool:
    """Whether rho_1^(n-2)(Phi(2,2)_d/dx) meets its product-of-binomials
    closed form on the (at least one) canonical index tuples of positive
    degrees, and Phi^(n+1) of the derivation d/dx vanishes.

    Builds the one-even-generator commutative algebra and realizes
    Phi(2,2)_f = mu_0 insertion (f insertion mu_1) for f = d/dx.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    sig = Signature(even=1, odd=0, degree_bound=n + 2)
    partial = derivation_endo(sig)
    op = nr_product(mu(sig, 0), nr_product(partial, mu(sig, 1)))
    for _ in range(n - 2):
        op = rho_combination([(1, op, 1)])
    prefactor = (-1) ** (n - 2)
    for i in range(3, n + 1):
        prefactor *= comb(i - 1, 2)
    exponents = sig.basis_degrees()  # of x in each basis monomial
    checked = 0
    for tup in _index_tuples(sig, n):
        if not all(exponents[i] for i in tup):
            continue
        total = sum(exponents[i] for i in tup)
        expected = {sig.index_of(((total - 1,), ())): prefactor * total}
        if op._canonical_value(tup) != expected:
            return False
        checked += 1
    return checked > 0 and differential_order_check(partial, n)


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
