"""Acceptance suite: exact reproduction of the published values and identities.

Each test covers one acceptance criterion, asserts exact equality throughout,
and enforces its runtime budget.  All numeric constants below are frozen
published values or values derived from independent computation routes.
Where a criterion is a check that ``antibrackets verify`` runs, the test
runs the same entries of :func:`antibrackets.checks.registry` and asserts
which entries it ran.
"""

from __future__ import annotations

import itertools
import json
import time
from math import factorial

import pytest

from antibrackets.brackets import phi_direct_op
from antibrackets.checks import registry
from antibrackets.combinatorics import (
    koszul_numbers_chain,
    koszul_numbers_recursive,
)
from antibrackets.cli import main
from antibrackets.multilinear import (
    first_mismatch,
    mu,
    nr_bracket,
    op_combination,
    ops_equal,
    random_endo,
    rho,
)
from antibrackets.qxrep import conjecture_coefficients, solve_coefficients
from antibrackets.rational import Rational, rat
from antibrackets.series import koszul_numbers_itlog
from antibrackets.superalgebra import Signature

SEEDS = (42, 43, 44)

# the argument tuples `verify inversion` draws at seed 42 on (2,2,5), N = 5
INVERSION_ARGS_SEED_42 = [
    "x2^3*th1*th2", "x2^2", "th2", "x1*x2*th1,x1", "x2^2*th2,x2",
    "x2,th2,x2,x1,th2",
]

# published list of the first 12 rationals K_n
KOSZUL_FIRST_TWELVE = [
    rat(1), rat(-1, 2), rat(1, 2), rat(-2, 3), rat(11, 12), rat(-3, 4),
    rat(-11, 6), rat(29, 4), rat(493, 12), rat(-2711, 6), rat(-12406, 15),
    rat(2636317, 60),
]

# published integer normalization a_n = n! K_n for n <= 16
A180609_FIRST_SIXTEEN = [
    1, -1, 3, -16, 110, -540, -9240, 292320, 14908320, -1639612800,
    -33013854720, 21046667685120, -549927873855360, -637881314775344640,
    76198391578224115200, 41404329870413936025600,
]

# published triangular table of x_i^n = (-1)^n n! c_i^n, columns n = 2..10
COEFFICIENT_TABLE = {
    2: [rat(1), rat(1)],
    3: [rat(1), rat(3), rat(6)],
    4: [rat(4, 5), rat(24, 5), rat(24), rat(72)],
    5: [rat(4, 9), rat(40, 9), rat(40), rat(280), rat(1120)],
    6: [rat(4, 21), rat(20, 7), rat(40), rat(480), rat(4320), rat(21600)],
    7: [rat(1, 15), rat(7, 5), rat(28), rat(504), rat(7560), rat(83160),
        rat(498960)],
    8: [rat(8, 405), rat(224, 405), rat(224, 15), rat(1120, 3),
        rat(24640, 3), rat(147840), rat(1921920), rat(13453440)],
    9: [rat(8, 1575), rat(32, 175), rat(32, 5), rat(1056, 5), rat(6336),
        rat(164736), rat(3459456), rat(51891840), rat(415134720)],
    10: [rat(4, 3465), rat(4, 77), rat(16, 7), rat(96), rat(3744),
         rat(131040), rat(3931200), rat(94348800), rat(1603929600),
         rat(14435366400)],
}

# published low-order expressions of the brackets as polynomials in the
# adjoint derivations: degree n -> list of (coefficient, rho word), where
# word (1, 3) means the composite rho_1 rho_3 applied to the operator
RHO_POLYNOMIALS = {
    2: [(rat(-1), (1,))],
    3: [(rat(1, 2), (1, 1)), (rat(1, 2), (2,))],
    4: [(rat(-1, 6), (1, 1, 1)), (rat(-1, 2), (1, 2)), (rat(-1), (3,))],
    5: [(rat(1, 30), (1, 1, 1, 1)), (rat(1, 5), (1, 1, 2)),
        (rat(1), (1, 3)), (rat(3), (4,))],
    6: [(rat(-1, 270), (1, 1, 1, 1, 1)), (rat(-1, 27), (1, 1, 1, 2)),
        (rat(-1, 3), (1, 1, 3)), (rat(-7, 3), (1, 4)), (rat(-28, 3), (5,))],
}


@pytest.fixture(scope="module")
def default_signature():
    return Signature(even=2, odd=2, degree_bound=5)


def _budget(started: float, limit: float, label: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, (
        f"{label} took {elapsed:.1f}s, budget {limit}s"
        f" (rational backend {Rational.__module__})"
    )


def _run_registry(sig, N, seed, suites, prefixes=("",)):
    """Run the registry entries of ``suites`` whose label starts with one of
    ``prefixes``, assert that each holds, and return their labels."""
    labels = []
    for suite, label, thunk in registry(sig, N, seed, suites):
        if label.startswith(prefixes):
            assert thunk() is None, (suite, label)
            labels.append(label)
    return labels


def test_criterion_01_koszul_numbers_match_published_values():
    started = time.perf_counter()
    ks = koszul_numbers_recursive(16)
    assert [ks[n] for n in range(1, 13)] == KOSZUL_FIRST_TWELVE
    assert ks[9] == rat(493, 12)
    assert ks[12] == rat(2636317, 60)
    scaled = [factorial(n) * ks[n] for n in range(1, 17)]
    assert scaled == A180609_FIRST_SIXTEEN
    assert scaled[15] == 41404329870413936025600
    _budget(started, 1.0, "criterion 1")


def test_criterion_02_three_koszul_routes_agree():
    started = time.perf_counter()
    recursive = koszul_numbers_recursive(16)
    chain = koszul_numbers_chain(16)
    via_itlog = koszul_numbers_itlog(16)
    for n in range(1, 17):
        assert recursive[n] == chain[n] == via_itlog[n], n
    _budget(started, 5.0, "criterion 2")


def test_criterion_03_coefficient_table_reproduced_exactly(capsys):
    # the normalized column users see; the solve raising on b_n != 0 exits 1
    started = time.perf_counter()
    assert main(["coefficients", "--max-n", "10", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [int(row["n"]) for row in rows] == list(COEFFICIENT_TABLE)
    for row in rows:
        entries = [Rational(text) for text in row["x_i^n"].split(", ")]
        assert entries == COEFFICIENT_TABLE[int(row["n"])], row["n"]
    _budget(started, 10.0, "criterion 3")


def test_criterion_04_conjectured_closed_formula_holds_to_twelve():
    started = time.perf_counter()
    for n in range(2, 13):
        solved = solve_coefficients(n)
        assert list(solved.c) == conjecture_coefficients(n), n
        assert all((-1) ** n * c > 0 for c in solved.c), n
    _budget(started, 30.0, "criterion 4")


def test_criterion_05_low_order_universal_formulas(default_signature):
    started = time.perf_counter()
    sig = default_signature
    for seed in SEEDS:
        f = random_endo(sig, seed, parity="even")
        words = {(): f}

        def word_op(word):
            if word not in words:
                words[word] = rho(word[0], word_op(word[1:]))
            return words[word]

        for n, terms in RHO_POLYNOMIALS.items():
            rhs = op_combination([(word_op(w), c) for c, w in terms])
            lhs = phi_direct_op(f, n)
            assert first_mismatch(lhs, rhs) is None, (seed, n)
    _budget(started, 60.0, "criterion 5")


def test_criterion_06_four_construction_agreement(default_signature):
    # seeds 42, 43, 44 with parities even, odd, even; degrees 1..5
    started = time.perf_counter()
    labels = _run_registry(default_signature, 5, 42, ["universal"],
                           ("construction",))
    assert labels == [
        f"construction direct=={m} seed={seed}"
        for seed in SEEDS for m in ("recursion", "bracket", "exponential")
    ]
    _budget(started, 60.0, "criterion 6")


def test_criterion_07_generalized_jacobi_and_inversion(default_signature):
    started = time.perf_counter()
    labels = _run_registry(default_signature, 5, 42, ["jacobi", "inversion"])
    assert labels[:12] == [
        f"jacobi n={n} parities=({fp},{gp})"
        for fp, gp in (("even", "odd"), ("odd", "even"), ("odd", "odd"))
        for n in range(1, 5)
    ]
    assert labels[12:] == [
        f"inversion n={args.count(',') + 1} {parity} args=({args})"
        for args in INVERSION_ARGS_SEED_42 for parity in ("even", "odd")
    ]
    _budget(started, 60.0, "criterion 7")


def test_criterion_08_noncommutative_extension():
    started = time.perf_counter()
    sig = Signature(even=2, odd=1, degree_bound=3, commutative=False)
    labels = _run_registry(sig, 4, 42, ["universal"],
                           ("identity-operator", "mu-bracket"))
    assert labels == [
        *(f"identity-operator bracket degree {n}" for n in range(1, 5)),
        "mu-bracket (1,0)", "mu-bracket (2,0)", "mu-bracket (2,1)",
    ]
    # the registry's mu-brackets stop at n = 2
    for n in range(3, 5):
        for m in range(0, n):
            if n + m > 4:
                continue
            factor = rat(
                (n - m) * factorial(n + m + 1),
                factorial(n + 1) * factorial(m + 1),
            )
            lhs = nr_bracket(mu(sig, n), mu(sig, m))
            rhs = op_combination([(mu(sig, n + m), factor)])
            assert ops_equal(lhs, rhs), (n, m)
    labels = _run_registry(sig, 4, 42, ["jacobi"])
    assert labels == [
        f"jacobi n={n} parities=({fp},{gp})"
        for fp, gp in (("even", "odd"), ("odd", "even"), ("odd", "odd"))
        for n in range(1, 4)
    ]
    _budget(started, 60.0, "criterion 8")


def test_criterion_09_series_identities():
    started = time.perf_counter()
    labels = _run_registry(None, 5, 42, ["series"])
    assert labels == [
        "Julia equation at order 20",
        *(f"psi(a_{d}) == (e^t-1)^{d + 1}/{d + 1}!" for d in range(7)),
        *(f"graded-variable exponential check d={d}" for d in range(5)),
        *(f"Stirling derivative identity n={n}" for n in range(1, 5)),
    ]
    _budget(started, 10.0, "criterion 9")


def test_criterion_10_differential_operator_vanishing(default_signature):
    started = time.perf_counter()
    labels = _run_registry(default_signature, 4, 42, ["order", "linf"])
    assert labels == [
        "order d/dx1 exactly 1", "order (d/dx1)^2 exactly 2",
        "order d/dth1 odd and square-zero",
        "order multiplication-by-th1 odd and square-zero",
        "order multiplication-by-th1 above 1",
        "linf odd-derivation d/dth1 up to n=4",
        "linf multiplication-by-th1 up to n=4",
    ]
    _budget(started, 30.0, "criterion 10")


def test_criterion_11_operator_representation_consistency():
    started = time.perf_counter()
    labels = _run_registry(None, 5, 42, ["polynomial"])
    pairs = [(n, m) for n in range(1, 5) for m in range(1, 5) if n != m]
    assert labels == [
        *(f"rho_{k} on V^{n}: monomial rules == coordinates"
          for k in range(1, 7) for n in range(1, 8 - k)),
        *(f"rho-bracket ({n},{m}) on Phi(2,1)"
          for n, m in ((2, 1), (3, 1), (3, 2), (4, 1))),
        *(f"b_{n} = 0 witness" for n in range(2, 6)),
        *(f"duality on x^{h} to degree 8" for h in range(1, 7)),
        *(f"coderivation ({n},{m})" for n, m in pairs),
        *(f"Witt ({n},{m})" for m, n in itertools.combinations(range(4), 2)),
    ]
    _budget(started, 30.0, "criterion 11")
