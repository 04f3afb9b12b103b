"""The registry of identity checks that ``antibrackets verify`` runs.

Each check is stated once, here, as an entry ``(suite, label, thunk)``; the
CLI and the acceptance suite iterate the same entries.  A thunk computes its
identity when called and returns None when it holds.  Otherwise it returns
what went wrong: False when there is nothing more to say, a text, a
:func:`first_mismatch` triple (arguments, lhs value, rhs value), or
(degree, triple) when two hierarchies are compared degree by degree.
Entries are generated lazily and share the operators of their group, so
memoized tables stay warm across the degrees of one operator.
:func:`describe` names, in one line, the signature the checks run on and
its size, counted without building its basis.
"""

from __future__ import annotations

import random
from functools import cache, partial
from itertools import combinations, permutations
from math import comb, factorial, lcm

from .brackets import (
    differential_order_check,
    inversion_check,
    jacobi_rhs,
    linfinity_check,
    phi_hierarchy,
)
from .combinatorics import mu_bracket_factor
from .multilinear import (
    derivation_endo,
    first_mismatch,
    is_zero_op,
    multiplication_endo,
    mu,
    nr_bracket,
    nr_product,
    odd_partial_endo,
    op_combination,
    random_endo,
    rho_combination,
)
from .qxrep import (
    bn_zero_witness,
    coderivation_check,
    coefficient_series,
    duality_check,
    phi_operator,
    rho_bracket_check,
    rho_coordinates_check,
    witt_check,
)
from .rational import rat
from .series import (
    exp_minus_one,
    graded_exponential_check,
    hurwitz_series,
    itlog,
    julia_check,
    log_one_plus,
    series_compose,
    stirling_derivative_check,
)

__all__ = ["SUITES", "VERIFY_ALL", "describe", "registry"]


def _holds(ok: bool):
    return None if ok else False


def _check(check, *args):
    return _holds(check(*args))


def _jacobi(sig, N, seed):
    """Phi^n_[f,g] == sum_i [Phi^i_f, Phi^(n+1-i)_g] for n = 1..top."""
    top = min(N - 1, 4) if N > 1 else 1

    @cache
    def hierarchy(s, parity):  # shared by the pairs that draw the same operator
        op = random_endo(sig, s, parity=parity)
        return op, phi_hierarchy(op, top)

    for fp, gp in (("even", "odd"), ("odd", "even"), ("odd", "odd")):
        (f, phis_f), (g, phis_g) = hierarchy(seed, fp), hierarchy(seed + 1, gp)
        phis_h = phi_hierarchy(nr_bracket(f, g), top)
        for n in range(1, top + 1):
            yield (f"jacobi n={n} parities=({fp},{gp})",
                   partial(_jacobi_identity, phis_f, phis_g, phis_h, n))


def _jacobi_identity(phis_f, phis_g, phis_h, n):
    return first_mismatch(phis_h[n], jacobi_rhs(phis_f, phis_g, n))


def _universal(sig, N, seed):
    top = min(N, 5)
    methods = (["direct", "recursion", "bracket", "exponential"]
               if sig.commutative else ["bracket", "exponential"])
    coefficients = coefficient_series(min(top, 4) - 1)
    for k, parity in enumerate(("even", "odd", "even")):
        f = random_endo(sig, seed + k, parity=parity)
        yield from _universal_operator(f, seed + k, methods, top, coefficients)
    # identity operator: Phi^(n+1) = (-1)^n mu_n
    ident = phi_hierarchy(mu(sig, 0), min(N, 4), method="bracket")
    for n in range(min(N, 4)):
        yield (f"identity-operator bracket degree {n + 1}",
               lambda n=n: first_mismatch(
                   ident[n + 1], op_combination([(mu(sig, n), (-1) ** n)])))
    for n in range(3):
        for m in range(n):
            yield (f"mu-bracket ({n},{m})",
                   lambda n=n, m=m: first_mismatch(
                       nr_bracket(mu(sig, n), mu(sig, m)),
                       op_combination(
                           [(mu(sig, n + m), mu_bracket_factor(n, m))])))


def _universal_operator(f, seed, methods, top, coefficients):
    """Every construction of f's hierarchy equals the first; and
    Phi^(n+1) = (sum_i c_i rho_1^(n-i) rho_i) f, c = coefficients[n]."""
    hierarchies = {m: phi_hierarchy(f, top, method=m) for m in methods}
    base = hierarchies[methods[0]]

    def agrees(other):
        for n in range(1, top + 1):
            bad = first_mismatch(base[n], other[n])
            if bad is not None:
                return n, bad
        return None

    def standard_form(n):
        # Horner on int weights w_j = L c_j: H_1 = w_1 rho_1 f and H_j =
        # rho_1 H_(j-1) + w_j rho_j f, so H_n / L is the sum, as rho_1 is linear
        c = coefficients[n]
        L = lcm(*(x.denominator for x in c))
        w = [int(x.numerator * (L // x.denominator)) for x in c]
        horner = rho_combination([(1, f, w[0])])
        for j in range(2, n + 1):
            horner = rho_combination([(1, horner, 1), (j, f, w[j - 1])])
        return first_mismatch(base[n + 1], op_combination([(horner, rat(1, L))]))

    for m in methods[1:]:
        yield (f"construction {methods[0]}=={m} seed={seed}",
               partial(agrees, hierarchies[m]))
    for n in coefficients:
        yield (f"standard form degree {n + 1} seed={seed}",
               partial(standard_form, n))


def _inverts(op, n, args):
    return None if inversion_check(op, n, args) else (
        "identity failed on this tuple")


def _inversion(sig, N, seed):
    if not sig.commutative:
        yield "inversion (skipped: associative signature)", lambda: None
        return
    rng = random.Random(seed)
    basis = [m for m in sig.basis() if sig.degree(m) >= 1]
    if not basis:
        yield "inversion (vacuous: empty algebra)", lambda: None
        return
    ops = (("even", random_endo(sig, seed, parity="even")),
           ("odd", random_endo(sig, seed + 1, parity="odd")))
    for n in range(1, min(N, 5) + 1):
        for _ in range(3):
            args = []
            budget = sig.degree_bound
            for _ in range(n):
                options = [m for m in basis if sig.degree(m) <= budget]
                if not options:
                    break
                m = rng.choice(options)
                budget -= sig.degree(m)
                args.append(m)
            if len(args) < n:
                continue
            label = ",".join(sig.monomial_str(m) for m in args)
            for name, op in ops:
                yield (f"inversion n={n} {name} args=({label})",
                       partial(_inverts, op, n, args))


def _linf(sig, N, seed):
    if not sig.commutative or sig.odd < 1:
        yield "linf (skipped: needs an odd generator, commutative)", lambda: None
        return
    if not sig.unital:
        yield "linf (skipped: d/dth1 needs a unital signature)", lambda: None
        return
    top = min(N, 4)
    delta = odd_partial_endo(sig)
    yield (f"linf odd-derivation d/dth1 up to n={top}",
           lambda: _holds(linfinity_check(delta, top)))
    mult = multiplication_endo(sig, sig.monomial_element(sig.odd_generator(0)))
    yield (f"linf multiplication-by-th1 up to n={top}",
           lambda: _holds(linfinity_check(mult, top)))


def _order_at_most(op, k, exact):
    """Phi^(k+1) and Phi^(k+2) of op vanish, and Phi^k does not when exact."""
    return _holds(differential_order_check(op, k)
                  and differential_order_check(op, k + 1)
                  and not (exact and differential_order_check(op, k - 1)))


def _order(sig, N, seed):
    """Phi^(k+1) = 0 at order k: d/dx1 has order 1 and (d/dx1)^2 order 2,
    exactly where the degree bound reaches it; d/dth1 and multiplication by
    th1 are odd and square-zero, the latter of order above 1."""
    if not (sig.commutative and sig.unital):
        yield "order (skipped: needs a unital commutative signature)", lambda: None
        return
    if sig.even < 1:
        yield "order d/dx1 (skipped: needs an even generator)", lambda: None
    else:
        d = derivation_endo(sig)
        for k, name, op in ((1, "d/dx1", d), (2, "(d/dx1)^2", nr_product(d, d))):
            exact = sig.degree_bound >= k
            yield (f"order {name} {'exactly' if exact else 'at most'} {k}",
                   partial(_order_at_most, op, k, exact))
    if sig.odd < 1:
        yield "order d/dth1 (skipped: needs an odd generator)", lambda: None
        return
    mult = multiplication_endo(sig, sig.monomial_element(sig.odd_generator(0)))
    for name, op in (("d/dth1", odd_partial_endo(sig)),
                     ("multiplication-by-th1", mult)):
        yield (f"order {name} odd and square-zero", lambda op=op: _holds(
            op.parity == 1 and is_zero_op(nr_product(op, op))))
    yield ("order multiplication-by-th1 above 1",
           lambda: _holds(not differential_order_check(mult, 1)))


def _polynomial(sig, N, seed):
    """The model of rho_k on Q[x], which the universal coefficients are
    solved in; independent of the signature."""
    for k in range(1, 7):
        for n in range(1, 8 - k):
            yield (f"rho_{k} on V^{n}: monomial rules == coordinates",
                   partial(_check, rho_coordinates_check, k, n))
    psi = phi_operator([1, 0])  # Phi(2, 1)
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 1)):
        yield (f"rho-bracket ({n},{m}) on Phi(2,1)",
               partial(_check, rho_bracket_check, n, m, psi))
    for n in range(2, 6):
        yield f"b_{n} = 0 witness", partial(_check, bn_zero_witness, n)
    for h in range(1, 7):
        yield f"duality on x^{h} to degree 8", partial(_check, duality_check, h, 8)
    for n, m in permutations(range(1, 5), 2):
        yield f"coderivation ({n},{m})", partial(_check, coderivation_check, n, m)
    for m, n in combinations(range(4), 2):
        yield f"Witt ({n},{m})", partial(_check, witt_check, n, m)


def _hurwitz_identity(d):
    """psi(a_d) == (e^t - 1)^(d+1) / (d+1)! to order 15, where psi sends z^n
    to t^(n+1)/(n+1)!: the right side is one composition of t^(d+1)/(d+1)!
    with e^t - 1, and (n+1)! times its t^(n+1) coefficient is a_d's z^n."""
    power = [0] * 16
    power[d + 1] = rat(1, factorial(d + 1))
    rhs = series_compose(power, exp_minus_one(15))
    return _holds(rhs[0] == 0 and [factorial(n + 1) * c for n, c in
                                   enumerate(rhs[1:])] == hurwitz_series(d, 14))


def _series(sig, N, seed):
    order = max(N, 20)
    yield (f"Julia equation at order {order}",
           lambda: _holds(julia_check(itlog(exp_minus_one(order)), order)))
    for d in range(7):
        yield (f"psi(a_{d}) == (e^t-1)^{d + 1}/{d + 1}!",
               partial(_hurwitz_identity, d))
    for d in range(5):
        yield (f"graded-variable exponential check d={d}",
               lambda d=d: _holds(graded_exponential_check(d, 10)))
    f = log_one_plus(16)
    for n in range(1, 5):
        yield (f"Stirling derivative identity n={n}",
               lambda n=n: _holds(stirling_derivative_check(f, n, 16)))


SUITES = {
    "jacobi": _jacobi,
    "universal": _universal,
    "inversion": _inversion,
    "linf": _linf,
    "series": _series,
    "order": _order,
    "polynomial": _polynomial,
}

# the suites `verify all` runs; order and polynomial run only by name, so
# the pinned stdout of `verify all` stays as it is
VERIFY_ALL = ("jacobi", "universal", "inversion", "linf", "series")


def _basis_counts(sig) -> dict:
    """{(degree, parity): number of basis monomials of ``sig``}, counted
    without building the basis: j odd letters of e are a set of the odd
    generators and the rest a multiset of the even ones, or j places in a
    word."""
    p, q = sig.even, sig.odd
    counts = {}
    for e in range(0 if sig.unital else 1, sig.degree_bound + 1):
        for j in range(min(e, q) + 1 if sig.commutative else e + 1):
            if sig.commutative:
                evens = comb(p + e - j - 1, e - j) if p else int(e == j)
                n = comb(q, j) * evens
            else:
                n = comb(e, j) * p ** (e - j) * q ** j
            if n:
                counts[e, j % 2] = counts.get((e, j % 2), 0) + n
    return counts


def _tuple_counts(sig, max_arity: int) -> list:
    """The number of canonical index tuples of each arity 1..max_arity
    within the degree bound, counted from :func:`_basis_counts`: s even
    basis indices of degree e give C(s + m - 1, m) ways to take m entries
    of degree e, s odd ones C(s, m)."""
    bound = sig.degree_bound
    # counts[k][d]: the canonical tuples of arity k and total degree d
    counts = [[int(k == d == 0) for d in range(bound + 1)]
              for k in range(max_arity + 1)]
    for (e, p), s in _basis_counts(sig).items():
        ways = [comb(s, m) if p else comb(s + m - 1, m)
                for m in range(max_arity + 1)]
        counts = [[sum(ways[m] * counts[k - m][d - m * e]
                       for m in range(min(k, d // e if e else k) + 1))
                   for d in range(bound + 1)]
                  for k in range(max_arity + 1)]
    return [sum(row) for row in counts[1:]]


def describe(sig, N: int) -> str:
    """One line on what the registry checks: the signature, its basis size
    and its canonical tuple count at each arity 1..N, all counted without
    building the basis."""
    kind = "commutative" if sig.commutative else "associative"
    unit = "unital" if sig.unital else "non-unital"
    counts = _tuple_counts(sig, N)  # the tuples of arity 1 are the basis
    return (f"signature: {sig.even} even, {sig.odd} odd, degree <= "
            f"{sig.degree_bound}, {kind}, {unit}; basis {counts[0]}; "
            f"canonical tuples by arity 1..{N}: {' / '.join(map(str, counts))}")


def registry(sig, N: int, seed: int, suites):
    """Every check of the named suites, in order, as (suite, label, thunk).

    ``N`` (at least 1) is the largest degree checked (each suite caps it)
    and ``seed`` draws the random operators and argument tuples.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return ((suite, label, thunk)
            for suite in suites for label, thunk in SUITES[suite](sig, N, seed))
