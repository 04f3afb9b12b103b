"""The registry of identity checks that ``antibrackets verify`` runs.

Each check is stated once, here, as an entry ``(suite, label, thunk)``; the
CLI and the acceptance suite iterate the same entries.  A thunk computes its
identity when called and returns None when it holds.  Otherwise it returns
what went wrong: False when there is nothing more to say, a text, a
:func:`first_mismatch` triple (arguments, lhs value, rhs value), or
(degree, triple) when two hierarchies are compared degree by degree.
Entries are generated lazily and share the operators of their group, so
memoized tables stay warm across the degrees of one operator.
"""

from __future__ import annotations

import random
from functools import partial
from math import factorial

from .brackets import (
    inversion_check,
    jacobi_rhs,
    linfinity_check,
    phi_hierarchy,
)
from .combinatorics import mu_bracket_factor
from .multilinear import (
    first_mismatch,
    identity_endo,
    multiplication_endo,
    mu_for,
    nr_bracket,
    odd_partial_endo,
    op_combination,
    random_endo,
    rho,
)
from .qxrep import solve_coefficients
from .rational import rat
from .series import (
    TruncatedSeries,
    exp_minus_one,
    graded_exponential_check,
    hurwitz_series,
    itlog,
    julia_check,
    log_one_plus,
    psi_of_series,
    series_mul,
    stirling_derivative_check,
)

__all__ = ["SUITES", "registry"]


def _holds(ok: bool):
    return None if ok else False


def _jacobi(sig, N, seed):
    """Phi^n_[f,g] == sum_i [Phi^i_f, Phi^(n+1-i)_g] for n = 1..top."""
    top = min(N - 1, 4) if N > 1 else 1
    for fp, gp in (("even", "odd"), ("odd", "even"), ("odd", "odd")):
        f = random_endo(sig, seed, parity=fp)
        g = random_endo(sig, seed + 1, parity=gp)
        phis = [phi_hierarchy(op, top) for op in (f, g, nr_bracket(f, g))]
        for n in range(1, top + 1):
            yield (f"jacobi n={n} parities=({fp},{gp})",
                   partial(_jacobi_identity, *phis, n))


def _jacobi_identity(phis_f, phis_g, phis_h, n):
    return first_mismatch(phis_h[n], jacobi_rhs(phis_f, phis_g, n))


def _universal(sig, N, seed):
    top = min(N, 5)
    methods = (["direct", "recursion", "bracket", "exponential"]
               if sig.commutative else ["bracket", "exponential"])
    for k, parity in enumerate(("even", "odd", "even")):
        f = random_endo(sig, seed + k, parity=parity)
        yield from _universal_operator(f, seed + k, methods, top)
    # identity operator: Phi^(n+1) = (-1)^n mu_n
    ident = phi_hierarchy(identity_endo(sig), min(N, 4), method="bracket")
    for n in range(min(N, 4)):
        yield (f"identity-operator bracket degree {n + 1}",
               lambda n=n: first_mismatch(
                   ident[n + 1], op_combination([(mu_for(sig, n), (-1) ** n)])))
    for n in range(3):
        for m in range(n):
            yield (f"mu-bracket ({n},{m})",
                   lambda n=n, m=m: first_mismatch(
                       nr_bracket(mu_for(sig, n), mu_for(sig, m)),
                       op_combination(
                           [(mu_for(sig, n + m), mu_bracket_factor(n, m))])))


def _universal_operator(f, seed, methods, top):
    """Every construction of f's hierarchy equals the first; and
    Phi^(n+1) = (sum_i c_i rho_1^(n-i) rho_i) f."""
    hierarchies = {m: phi_hierarchy(f, top, method=m) for m in methods}
    base = hierarchies[methods[0]]

    def agrees(other):
        for n in range(1, top + 1):
            bad = first_mismatch(base[n], other[n])
            if bad is not None:
                return n, bad
        return None

    def standard_form(n):
        coeffs = solve_coefficients(n)
        terms = []
        for i in range(1, n + 1):
            chain = rho(i, f)
            for _ in range(n - i):
                chain = rho(1, chain)
            terms.append((chain, coeffs.c[i - 1]))
        return first_mismatch(base[n + 1], op_combination(terms))

    for m in methods[1:]:
        yield (f"construction {methods[0]}=={m} seed={seed}",
               partial(agrees, hierarchies[m]))
    for n in range(1, min(top, 4)):
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
    top = min(N, 4)
    delta = odd_partial_endo(sig)
    yield (f"linf odd-derivation d/dth1 up to n={top}",
           lambda: _holds(linfinity_check(delta, top)))
    mult = multiplication_endo(sig, sig.monomial_element(sig.odd_generator(0)))
    yield (f"linf multiplication-by-th1 up to n={top}",
           lambda: _holds(linfinity_check(mult, top)))


def _hurwitz_identity(d):
    """psi(a_d) == (e^t - 1)^(d+1) / (d+1)! to order 15."""
    lhs = psi_of_series(hurwitz_series(d, 14))
    e = exp_minus_one(15)
    power = TruncatedSeries(15, [1])
    for _ in range(d + 1):
        power = series_mul(power, e)
    return _holds(lhs == power.scale(rat(1, factorial(d + 1))))


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
}


def registry(sig, N: int, seed: int, suites=tuple(SUITES)):
    """Every check of the named suites, in order, as (suite, label, thunk).

    ``N`` (at least 1) is the largest degree checked (each suite caps it)
    and ``seed`` draws the random operators and argument tuples.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return ((suite, label, thunk)
            for suite in suites for label, thunk in SUITES[suite](sig, N, seed))
