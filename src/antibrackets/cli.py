"""Command-line surface.

Subcommands:

* ``koszul-numbers`` -- table of n, K_n, n!*K_n with three computation
  routes cross-checked;
* ``coefficients``   -- triangular table of the normalized universal
  coefficients (-1)^n n! c_i^n, with a closed-formula match column;
* ``conjecture``     -- per-n report comparing the solved coefficients with
  the conjectured closed formula (mismatches are findings, not failures);
* ``verify``         -- run one exact identity suite, or the five of ``all``,
  on a configurable free superalgebra and exit nonzero on a failed identity;
  it first names the signature and its size on stderr.

Each report builds only the fields it prints, and compares the solved
coefficients with the conjectured ones on ints.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from math import factorial

from .combinatorics import koszul_numbers_chain, koszul_numbers_recursive
# unused here; perfbench/test_perfbench.py asserts this binding
from .multilinear import nr_bracket  # noqa: F401
from .qxrep import coefficient_series, conjecture_numerators
from .rational import format_rational, rat
from .series import koszul_numbers_itlog
from .superalgebra import Signature

__all__ = ["main"]

# The largest --max-n of the three reports (about 2 s each) and of verify
# (its series suite 1.8-2.8 s in process; Python 3.11, 2 cores), costed in
# the README.
REPORT_MAX_N = 200


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    # imported here and in cmd_verify, so that importing cli loads no check
    # (perfbench/run.py imports the package five times a run, uncached)
    from .checks import SUITES, VERIFY_ALL
    parser = argparse.ArgumentParser(
        prog="antibrackets",
        description="Exact computations with higher antibrackets on free superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, max_n_default):
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
    v.add_argument("suite", choices=[*SUITES, "all"],
                   help=f"the suite to run; all runs {', '.join(VERIFY_ALL)}")
    v.add_argument("--max-n", type=int, default=5, metavar="N",
                   help="largest index/degree computed")
    v.add_argument("--format", choices=["plain", "json"],
                   default="plain", help="output format")
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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(header)
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)))


def _max_n_in_range(N: int, low: int) -> bool:
    """False, after printing the usage error, when --max-n is out of range."""
    if low <= N <= REPORT_MAX_N:
        return True
    bound = f">= {low}" if N < low else f"<= {REPORT_MAX_N}"
    print(f"error: --max-n must be {bound}", file=sys.stderr)
    return False


# -- koszul-numbers ---------------------------------------------------------


def cmd_koszul_numbers(args) -> int:
    N = args.max_n
    if not _max_n_in_range(N, 1):
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
    rows = [[str(n), format_rational(K),
             format_rational(rat(K.numerator * factorial(n), K.denominator))]
            for n, K in enumerate(recursive[1:], 1)]
    _emit_rows(rows, ["n", "K_n", "n!*K_n"], args.format)
    return 0


# -- coefficients and conjecture -------------------------------------------


def _coefficient_report(args, emit) -> int:
    """Solve degrees 2..N in one pass and hand (n, coefficients) to emit."""
    N = args.max_n
    if not _max_n_in_range(N, 2):
        return 2
    try:
        series = coefficient_series(N)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit([(n, series[n]) for n in range(2, N + 1)], args.format)
    return 0


def _matches(solved, numerators, denominator) -> bool:
    """Whether each solved rational is its numerator over denominator,
    compared on ints."""
    return all(c.numerator * denominator == t * c.denominator
               for c, t in zip(solved, numerators, strict=True))


def _emit_coefficients(degrees, fmt):
    """One row per degree: n, the (-1)^n n! c_i^n, and the conjecture match."""
    rows = []
    for n, coeffs in degrees:
        sign = (-1) ** n * factorial(n)
        match = _matches(coeffs, *conjecture_numerators(n))
        rows.append([str(n),
                     ", ".join([format_rational(c * sign) for c in coeffs]),
                     "match" if match else "MISMATCH"])
    _emit_rows(rows, ["n", "x_i^n", "conjecture"], fmt)


def _conjecture_row(n: int, coeffs) -> dict:
    """The conjecture report of degree n, with rationals rendered as strings.

    The conjectured text is the solved text whenever the two match, and
    positive tests the sign of each solved numerator against (-1)^n.
    """
    numerators, denominator = conjecture_numerators(n)
    match = _matches(coeffs, numerators, denominator)
    text = [format_rational(c) for c in coeffs]
    sign = -1 if n % 2 else 1
    return {
        "n": n,
        "solved": text,
        "conjectured": text if match else [
            format_rational(rat(t, denominator)) for t in numerators],
        "match": match,
        "positive": all(sign * c.numerator > 0 for c in coeffs),
        # coefficient_series raises on b_n != 0, and the command exits 1
        "bn_zero": True,
    }


def _emit_conjecture(degrees, fmt):
    reports = [_conjecture_row(n, coeffs) for n, coeffs in degrees]
    if fmt == "json":
        print(json.dumps(reports))
        return
    rows = [
        [str(r["n"]),
         ", ".join(r["solved"]),
         "match" if r["match"] else "MISMATCH",
         "yes" if r["positive"] else "NO",
         "yes" if r["bn_zero"] else "NO"]
        for r in reports
    ]
    _emit_rows(rows, ["n", "c_i^n", "conjecture", "positive", "bn_zero"], fmt)


def cmd_coefficients(args) -> int:
    return _coefficient_report(args, _emit_coefficients)


def cmd_conjecture(args) -> int:
    return _coefficient_report(args, _emit_conjecture)


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


def _detail(sig, outcome):
    """The text shown under a check, from its thunk's outcome, or None."""
    if not outcome or isinstance(outcome, str):
        return outcome or None
    if len(outcome) == 2:  # (degree, mismatch) of two hierarchies
        degree, mismatch = outcome
        return f"degree {degree}: " + _detail(sig, mismatch)
    tup, a, b = outcome
    names = ",".join(sig.monomial_str(m) for m in tup)
    return f"first counterexample at ({names}): lhs = {a!r}, rhs = {b!r}"


def cmd_verify(args) -> int:
    if not _max_n_in_range(args.max_n, 1):
        return 2
    try:
        sig = _make_signature(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .checks import VERIFY_ALL, describe, registry
    # no registry suite compares tuples of arity above 5
    print(describe(sig, min(args.max_n, 5)), file=sys.stderr, flush=True)
    suites = VERIFY_ALL if args.suite == "all" else [args.suite]
    results = []
    for suite, label, thunk in registry(sig, args.max_n, args.seed, suites):
        outcome = thunk()
        r = {"suite": suite, "check": label, "ok": outcome is None,
             "detail": _detail(sig, outcome)}
        results.append(r)
        if args.format != "json":  # each line as its check finishes
            status = "pass" if r["ok"] else "FAIL"
            print(f"[{status}] {suite}: {label}", flush=True)
            if r["detail"] and not r["ok"]:
                print(f"       {r['detail']}", flush=True)
    failures = sum(not r["ok"] for r in results)
    if args.format == "json":
        print(json.dumps({"ok": failures == 0, "checks": results}))
    else:
        print(f"{len(results) - failures}/{len(results)} checks passed")
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
