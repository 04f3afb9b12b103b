"""The benchmark's workloads.

Each workload turns a seed into a fixed list of checks. A check calls the
library's public functions on inputs generated here and returns its
verdict; a check that returns False or raises counts as failed. A check is
also the unit of latency: one operator's four-way cross-check, one
inversion query, or one pair of CLI calls. The work is fixed by the seed
and the number of checks, so a faster library finishes sooner instead of
doing more, and the domain counts below must match exactly.

Sizes are chosen so that a run of 25 seconds on the reference machine
(2 cores, Python 3.11, ``fractions.Fraction`` backend) holds several checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable

ROUTES = ("direct", "recursion", "bracket", "exponential")

# The first twelve Koszul numbers K_n, as published.
KOSZUL_PUBLISHED = (
    "1", "-1/2", "1/2", "-2/3", "11/12", "-3/4", "-11/6", "29/4", "493/12",
    "-2711/6", "-12406/15", "2636317/60",
)


@dataclass
class Check:
    """One verdict: ``run(span)`` returns True when every identity holds."""

    kind: str
    run: Callable


@dataclass
class Plan:
    checks: list
    domain: dict  # counts measured on the generated inputs


@dataclass(frozen=True)
class Workload:
    name: str
    check_s: float  # nominal seconds per check at the parent commit
    build: Callable  # (lib, seed, count) -> Plan
    domain: dict  # the fixed domain every plan must reproduce
    compared_tuples_per_check: int  # canonical tuples first_mismatch scans

    def checks_for(self, seconds):
        return max(1, round(seconds / self.check_s))


def force(hierarchy, tuples):
    """Evaluate every canonical tuple, so lazy and eager tables cost the same."""
    for n, tups in tuples.items():
        op = hierarchy[n]
        for tup in tups:
            op.value(tup)


def routes_agree(lib, base, others, top):
    """Whether every other hierarchy equals ``base`` on degrees 1..top.

    Every pair is compared even after a mismatch, so the work is fixed.
    """
    mismatches = sum(lib.first_mismatch(base[n], other[n]) is not None
                     for other in others for n in range(1, top + 1))
    return mismatches == 0


# -- constructions -----------------------------------------------------------
# The paper's cross-check: four independent constructions of Phi^n agree.
# The operator is dense (every parity-allowed matrix entry drawn), so the work
# of a check does not swing with how sparse one draw happened to be.

CONSTRUCTIONS_SIG = dict(even=2, odd=2, degree_bound=3)
CONSTRUCTIONS_N = 5


def _constructions_check(lib, f, tuples, span):
    h = {}
    for route in ROUTES:
        with span(f"construct.{route}"):
            h[route] = lib.phi_hierarchy(f, CONSTRUCTIONS_N, method=route)
            force(h[route], tuples)
    return routes_agree(lib, h["direct"], [h[r] for r in ROUTES[1:]],
                        CONSTRUCTIONS_N)


def build_constructions(lib, seed, count):
    rng = random.Random(seed)
    checks = []
    for i in range(count):
        sig = lib.Signature(**CONSTRUCTIONS_SIG)
        parity = ("even", "odd")[(seed + i) % 2]
        f = lib.random_endo(sig, rng.randrange(2**31), parity=parity, density=1.0)
        tuples = {n: lib.canonical_tuples(sig, n)
                  for n in range(1, CONSTRUCTIONS_N + 1)}
        checks.append(Check("constructions",
                            partial(_constructions_check, lib, f, tuples)))
    domain = {"basis": len(sig.basis()),
              "tuples": [len(tuples[n]) for n in sorted(tuples)]}
    return Plan(checks, domain)


# -- pointwise ---------------------------------------------------------------
# Point queries on a basis too large for full tables, as `verify inversion`
# makes them: a cold operator memo on every check and integer arithmetic only.

POINTWISE_SIG = dict(even=3, odd=3, degree_bound=8)
# The slowest checks are those whose products meet dense images, so the tail
# latency depends on the operators; cycling through three pairs keeps one
# unlucky draw from setting a run's p90.
POINTWISE_OPERATOR_PAIRS = 3


def _random_tuple(rng, sig, monomials, degrees, arity):
    """Non-unit monomials whose degrees sum to at most the degree bound."""
    budget = sig.degree_bound
    out = []
    for slot in range(arity):
        reserve = arity - slot - 1  # every later slot needs degree >= 1
        m = monomials[rng.randrange(bisect_right(degrees, budget - reserve))]
        budget -= sig.degree(m)
        out.append(m)
    return out


def _inversion_check(lib, f, arity, args, span):
    return lib.inversion_check(f, arity, args)


def build_pointwise(lib, seed, count):
    rng = random.Random(seed)
    sig = lib.Signature(**POINTWISE_SIG)
    ops = [lib.random_endo(sig, rng.randrange(2**31), parity=parity)
           for parity in ("even", "odd") * POINTWISE_OPERATOR_PAIRS]
    monomials = [m for m in sig.basis() if sig.degree(m) >= 1]  # by degree
    degrees = [sig.degree(m) for m in monomials]
    checks = []
    for i in range(count):
        arity = rng.randint(2, 6)
        args = _random_tuple(rng, sig, monomials, degrees, arity)
        checks.append(Check("inversion", partial(
            _inversion_check, lib, ops[i % len(ops)], arity, args)))
    return Plan(checks, {"basis": len(sig.basis())})


# -- coefficients ------------------------------------------------------------
# The CLI's coefficient reports: exact linear solve, Koszul number routes and
# large Fractions, never touching multilinear. The input is fixed, so the
# seed is unused.

CONJECTURE_MAX_N = 20
KOSZUL_MAX_N = 15


def run_cli(lib, argv):
    """In-process ``antibrackets`` call: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def conjecture_rows_ok(rows, top):
    """Rows n = 2..top, each solved exactly as conjectured, signed, b_n = 0."""
    return (
        [r["n"] for r in rows] == list(range(2, top + 1))
        and all(r["match"] and r["positive"] and r["bn_zero"]
                and r["solved"] == r["conjectured"] for r in rows)
    )


def _koszul_row_ok(row):
    n = int(row["n"])
    p, _, q = row["K_n"].partition("/")
    p, q = int(p), int(q or 1)
    scaled = p * factorial(n)
    return (
        scaled % q == 0
        and row["n!*K_n"] == str(scaled // q)
        and (n > len(KOSZUL_PUBLISHED) or row["K_n"] == KOSZUL_PUBLISHED[n - 1])
    )


def koszul_rows_ok(rows, top):
    """Rows n = 1..top; n!*K_n is the integer n! K_n; K_n as published."""
    return ([int(r["n"]) for r in rows] == list(range(1, top + 1))
            and all(_koszul_row_ok(r) for r in rows))


def _coefficients_check(lib, span):
    code, out = run_cli(lib, ["conjecture", "--max-n", str(CONJECTURE_MAX_N),
                              "--format", "json"])
    conjecture_ok = code == 0 and conjecture_rows_ok(json.loads(out),
                                                     CONJECTURE_MAX_N)
    code, out = run_cli(lib, ["koszul-numbers", "--max-n", str(KOSZUL_MAX_N),
                              "--format", "json"])
    koszul_ok = code == 0 and koszul_rows_ok(json.loads(out), KOSZUL_MAX_N)
    return conjecture_ok and koszul_ok


def build_coefficients(lib, seed, count):
    del seed
    checks = [Check("coefficients", partial(_coefficients_check, lib))
              for _ in range(count)]
    return Plan(checks, {"conjecture_max_n": CONJECTURE_MAX_N,
                         "koszul_max_n": KOSZUL_MAX_N})


# Constructions compares three routes on arities 1..5: 3 * (25+65+77+77+77)
# canonical tuples per check.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("constructions", 2.5, build_constructions,
                 {"basis": 25, "tuples": [25, 65, 77, 77, 77]}, 963),
        Workload("pointwise", 0.02, build_pointwise, {"basis": 833}, 0),
        Workload("coefficients", 0.9, build_coefficients,
                 {"conjecture_max_n": CONJECTURE_MAX_N,
                  "koszul_max_n": KOSZUL_MAX_N}, 0),
    )
}
