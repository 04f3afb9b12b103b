"""Command-line surface.

Subcommands:

* ``koszul-numbers`` -- table of n, K_n, n!*K_n with three computation
  routes cross-checked;
* ``coefficients``   -- triangular table of the normalized universal
  coefficients (-1)^n n! c_i^n, with a closed-formula match column;
* ``conjecture``     -- per-n report comparing the solved coefficients with
  the conjectured closed formula (mismatches are findings, not failures);
* ``verify``         -- run the exact identity suites on a configurable free
  superalgebra and exit nonzero on the first failed identity.

Exit codes: 0 success, 1 verification failure, 2 usage error.  The
``ANTIBRACKET_WORKERS`` environment variable sets the number of processes
for the conjecture report, clamped to 1..os.cpu_count().
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from math import factorial

from .brackets import (
    identity_hierarchy,
    inversion_check,
    jacobi_rhs,
    linfinity_check,
    phi_hierarchy,
)
from .combinatorics import koszul_numbers_chain, koszul_numbers_recursive
from .multilinear import (
    first_mismatch,
    lift_endo,
    mu_for,
    nr_bracket,
    op_scale,
    op_sum,
    rho,
)
from .qxrep import conjecture_formula, solve_coefficients
from .rational import format_rational, rat
from .series import (
    TruncatedSeries,
    graded_exponential_check,
    exp_minus_one,
    itlog,
    julia_check,
    koszul_numbers_itlog,
    log_one_plus,
    psi_of_series,
    series_mul,
    hurwitz_series,
    stirling_derivative_check,
)
from .superalgebra import (
    Signature,
    multiplication_endo,
    odd_partial_endo,
    random_endo,
    supercommutator,
)

__all__ = ["main", "build_parser"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="antibrackets",
        description="Exact computations with higher antibrackets on free superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_n_default=5):
        p.add_argument("--max-n", type=int, default=max_n_default, metavar="N",
                       help="largest index/degree computed")
        p.add_argument("--format", choices=["plain", "csv", "json"],
                       default="plain", help="output format")

    k = sub.add_parser("koszul-numbers", help="table of K_n and n!*K_n")
    add_common(k, max_n_default=16)

    c = sub.add_parser("coefficients",
                       help="table of normalized universal coefficients")
    add_common(c, max_n_default=10)

    j = sub.add_parser("conjecture",
                       help="solved vs conjectured universal coefficients")
    add_common(j, max_n_default=12)

    v = sub.add_parser("verify", help="run the exact identity suites")
    v.add_argument("suite",
                   choices=["jacobi", "universal", "inversion", "linf",
                            "series", "all"])
    add_common(v)
    v.add_argument("--even", type=int, default=2, metavar="P",
                   help="number of even generators")
    v.add_argument("--odd", type=int, default=2, metavar="Q",
                   help="number of odd generators")
    v.add_argument("--degree", type=int, default=5, metavar="D",
                   help="degree bound of the truncated algebra")
    v.add_argument("--seed", type=int, default=42, metavar="S",
                   help="seed for the random operators")
    v.add_argument("--noncommutative", action="store_true",
                   help="use the free associative superalgebra")
    return parser


# -- output helpers ---------------------------------------------------------


def _emit_rows(rows, header, fmt):
    """rows: list of lists of strings."""
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows]))
    elif fmt == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(r))
    else:
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(header)
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


# -- koszul-numbers ---------------------------------------------------------


def cmd_koszul_numbers(args) -> int:
    N = args.max_n
    if N < 1:
        print("error: --max-n must be >= 1", file=sys.stderr)
        return 2
    recursive = koszul_numbers_recursive(N)
    chain = koszul_numbers_chain(N)
    via_itlog = koszul_numbers_itlog(N)
    for n in range(1, N + 1):
        if not (recursive[n] == chain[n] == via_itlog[n]):
            print(
                f"error: computation routes disagree at n = {n}: "
                f"recursive {format_rational(recursive[n])}, "
                f"chain {format_rational(chain[n])}, "
                f"itlog {format_rational(via_itlog[n])}",
                file=sys.stderr,
            )
            return 1
    rows = [
        [str(n), format_rational(recursive[n]),
         format_rational(factorial(n) * recursive[n])]
        for n in range(1, N + 1)
    ]
    _emit_rows(rows, ["n", "K_n", "n!*K_n"], args.format)
    return 0


# -- coefficients -----------------------------------------------------------


def _coefficient_row(n: int) -> dict:
    """Everything about degree n, with rationals rendered as strings."""
    coeffs = solve_coefficients(n)
    sign = rat((-1) ** n * factorial(n))
    solved = list(coeffs.c)
    conjectured = [conjecture_formula(n, i) for i in range(1, n + 1)]
    return {
        "n": n,
        "normalized": [format_rational(sign * c) for c in solved],
        "solved": [format_rational(c) for c in solved],
        "conjectured": [format_rational(c) for c in conjectured],
        "match": solved == conjectured,
        "positive": all(rat((-1) ** n) * c > 0 for c in solved),
        "bn_zero": not coeffs.b,
    }


def cmd_coefficients(args) -> int:
    N = args.max_n
    if N < 2:
        print("error: --max-n must be >= 2", file=sys.stderr)
        return 2
    try:
        reports = [_coefficient_row(n) for n in range(2, N + 1)]
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [
        [str(r["n"]), ", ".join(r["normalized"]),
         "match" if r["match"] else "MISMATCH"]
        for r in reports
    ]
    _emit_rows(rows, ["n", "x_i^n", "conjecture"], args.format)
    return 0


# -- conjecture -------------------------------------------------------------


def worker_count(environ) -> int:
    """Processes for the conjecture report, from ``ANTIBRACKET_WORKERS``.

    Defaults to 1 and is clamped to 1..os.cpu_count(); a value that is not
    an integer raises ValueError.
    """
    text = environ.get("ANTIBRACKET_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(
            f"ANTIBRACKET_WORKERS must be an integer, got {text!r}"
        ) from None
    return max(1, min(workers, os.cpu_count() or 1))


def cmd_conjecture(args) -> int:
    N = args.max_n
    if N < 2:
        print("error: --max-n must be >= 2", file=sys.stderr)
        return 2
    degrees = list(range(2, N + 1))
    try:
        workers = worker_count(os.environ)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_coefficient_row, degrees))
    else:
        reports = [_coefficient_row(n) for n in degrees]
    if args.format == "json":
        print(json.dumps([
            {k: r[k] for k in
             ("n", "solved", "conjectured", "match", "positive", "bn_zero")}
            for r in reports
        ]))
    else:
        rows = [
            [str(r["n"]),
             ", ".join(r["solved"]),
             "match" if r["match"] else "MISMATCH",
             "yes" if r["positive"] else "NO",
             "yes" if r["bn_zero"] else "NO"]
            for r in reports
        ]
        _emit_rows(rows, ["n", "c_i^n", "conjecture", "positive", "bn_zero"],
                   "csv" if args.format == "csv" else "plain")
    return 0


# -- verify -----------------------------------------------------------------


def _make_signature(args) -> Signature:
    unital = not (args.even == 0 and args.odd == 0)
    return Signature(
        even=args.even,
        odd=args.odd,
        degree_bound=args.degree,
        commutative=not args.noncommutative,
        unital=unital,
    )


def _mismatch_text(sig, mismatch) -> str:
    tup, a, b = mismatch
    names = ",".join(sig.monomial_str(m) for m in tup)
    return f"first counterexample at ({names}): lhs = {a!r}, rhs = {b!r}"


def _suite_jacobi(sig, N, seed):
    top = min(N - 1, 4) if N > 1 else 1
    method = "direct" if sig.commutative else "bracket"
    for fp, gp in (("even", "odd"), ("odd", "even"), ("odd", "odd")):
        f = random_endo(sig, seed, parity=fp)
        g = random_endo(sig, seed + 1, parity=gp)
        # shared hierarchy instances keep the memoized tables warm across n
        phis_f = phi_hierarchy(f, top, method=method).brackets
        phis_g = phi_hierarchy(g, top, method=method).brackets
        phis_h = phi_hierarchy(supercommutator(f, g), top, method=method).brackets
        for n in range(1, top + 1):
            bad = first_mismatch(phis_h[n], jacobi_rhs(phis_f, phis_g, n))
            yield (
                f"jacobi n={n} parities=({fp},{gp})",
                bad is None,
                None if bad is None else _mismatch_text(sig, bad),
            )


def _suite_universal(sig, N, seed):
    top = min(N, 5)
    methods = (
        ["direct", "recursion", "bracket", "exponential"]
        if sig.commutative
        else ["bracket", "exponential"]
    )
    for k, parity in enumerate(("even", "odd", "even")):
        f = random_endo(sig, seed + k, parity=parity)
        hierarchies = {m: phi_hierarchy(f, top, method=m) for m in methods}
        base = hierarchies[methods[0]]
        for m in methods[1:]:
            ok = True
            detail = None
            for n in range(1, top + 1):
                bad = first_mismatch(base[n], hierarchies[m][n])
                if bad is not None:
                    ok = False
                    detail = f"degree {n}: " + _mismatch_text(sig, bad)
                    break
            yield (f"construction {methods[0]}=={m} seed={seed + k}", ok, detail)
        # standard form Phi^(n+1) = (sum_i c_i rho_1^(n-i) rho_i) f
        lifted = lift_endo(f)
        for n in range(1, min(top, 4)):
            coeffs = solve_coefficients(n)
            terms = []
            for i in range(1, n + 1):
                term = rho(i, lifted)
                for _ in range(n - i):
                    term = rho(1, term)
                terms.append(op_scale(term, coeffs.c[i - 1]))
            bad = first_mismatch(base[n + 1], op_sum(terms))
            yield (
                f"standard form degree {n + 1} seed={seed + k}",
                bad is None,
                None if bad is None else _mismatch_text(sig, bad),
            )
    # identity operator: Phi^(n+1) = (-1)^n mu_n
    ident = identity_hierarchy(sig, min(N, 4))
    for n in range(min(N, 4)):
        expected = op_scale(mu_for(sig, n), (-1) ** n)
        bad = first_mismatch(ident[n + 1], expected)
        yield (
            f"identity-operator bracket degree {n + 1}",
            bad is None,
            None if bad is None else _mismatch_text(sig, bad),
        )
    # [mu_n, mu_m] = (n-m)(n+m+1)!/((n+1)!(m+1)!) mu_(n+m)
    for n in range(3):
        for m in range(n):
            factor = rat(
                (n - m) * factorial(n + m + 1),
                factorial(n + 1) * factorial(m + 1),
            )
            lhs = nr_bracket(mu_for(sig, n), mu_for(sig, m))
            rhs = op_scale(mu_for(sig, n + m), factor)
            bad = first_mismatch(lhs, rhs)
            yield (
                f"mu-bracket ({n},{m})",
                bad is None,
                None if bad is None else _mismatch_text(sig, bad),
            )


def _suite_inversion(sig, N, seed):
    if not sig.commutative:
        yield ("inversion (skipped: associative signature)", True, None)
        return
    import random as _random

    rng = _random.Random(seed)
    basis = [m for m in sig.basis() if sig.degree(m) >= 1]
    if not basis:
        yield ("inversion (vacuous: empty algebra)", True, None)
        return
    f = random_endo(sig, seed, parity="even")
    g = random_endo(sig, seed + 1, parity="odd")
    for n in range(1, min(N, 5) + 1):
        for trial in range(3):
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
            for name, op in (("even", f), ("odd", g)):
                ok = inversion_check(op, n, args)
                label = ",".join(sig.monomial_str(m) for m in args)
                yield (f"inversion n={n} {name} args=({label})", ok,
                       None if ok else "identity failed on this tuple")


def _suite_linf(sig, N, seed):
    del seed
    if not sig.commutative or sig.odd < 1:
        yield ("linf (skipped: needs an odd generator, commutative)", True, None)
        return
    top = min(N, 4)
    delta = odd_partial_endo(sig)
    yield (f"linf odd-derivation d/dth1 up to n={top}",
           linfinity_check(delta, top), None)
    theta = sig.monomial_element(sig.odd_generator(0))
    mult = multiplication_endo(sig, theta)
    yield (f"linf multiplication-by-th1 up to n={top}",
           linfinity_check(mult, top), None)


def _suite_series(sig, N, seed):
    del sig, seed
    order = max(N, 20)
    a = itlog(exp_minus_one(order))
    yield (f"Julia equation at order {order}", julia_check(a, order), None)
    for d in range(7):
        lhs = psi_of_series(hurwitz_series(d, 14))
        e = exp_minus_one(15)
        power = TruncatedSeries(15, [1])
        for _ in range(d + 1):
            power = series_mul(power, e)
        rhs = power.scale(rat(1, factorial(d + 1)))
        yield (f"psi(a_{d}) == (e^t-1)^{d + 1}/{d + 1}!", lhs == rhs, None)
    for d in range(5):
        yield (f"graded-variable exponential check d={d}",
               graded_exponential_check(d, 10), None)
    f = log_one_plus(16)
    for n in range(1, 5):
        yield (f"Stirling derivative identity n={n}",
               stirling_derivative_check(f, n, 16), None)


_SUITES = {
    "jacobi": _suite_jacobi,
    "universal": _suite_universal,
    "inversion": _suite_inversion,
    "linf": _suite_linf,
    "series": _suite_series,
}


def cmd_verify(args) -> int:
    try:
        sig = _make_signature(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    results = []
    for name in names:
        for label, ok, detail in _SUITES[name](sig, args.max_n, args.seed):
            results.append({"suite": name, "check": label, "ok": ok,
                            "detail": detail})
            if not ok:
                failures += 1
    if args.format == "json":
        print(json.dumps({"ok": failures == 0, "checks": results}))
    else:
        for r in results:
            status = "pass" if r["ok"] else "FAIL"
            line = f"[{status}] {r['suite']}: {r['check']}"
            print(line)
            if r["detail"] and not r["ok"]:
                print(f"       {r['detail']}")
        total = len(results)
        print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "koszul-numbers": cmd_koszul_numbers,
        "coefficients": cmd_coefficients,
        "conjecture": cmd_conjecture,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
