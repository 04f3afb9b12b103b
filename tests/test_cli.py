from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import antibrackets
from antibrackets import checks, cli
from antibrackets.brackets import phi_hierarchy
from antibrackets.cli import build_parser, main
from antibrackets.multilinear import _index_tuples, random_endo
from antibrackets.qxrep import SingularMatrixError
from antibrackets.rational import Rational, format_rational, rat
from antibrackets.superalgebra import Signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_koszul_numbers_plain(capsys):
    code, out, _ = run_cli(capsys, "koszul-numbers", "--max-n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "K_n", "n!*K_n"]
    assert lines[1].split() == ["1", "1", "1"]
    assert lines[7].split() == ["7", "-11/6", "-9240"]


def test_koszul_numbers_json(capsys):
    code, out, _ = run_cli(capsys, "koszul-numbers", "--max-n", "16",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    last = rows[-1]
    assert last["n"] == "16"
    assert last["n!*K_n"] == "41404329870413936025600"
    assert Rational(last["K_n"]) == rat(
        41404329870413936025600, factorial(16)
    )


def test_koszul_numbers_csv(capsys):
    code, out, _ = run_cli(capsys, "koszul-numbers", "--max-n", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,K_n,n!*K_n", "1,1,1", "2,-1/2,-1"]


@pytest.mark.parametrize("command, column, expected_of", [
    ("coefficients", "x_i^n", lambda report: report["x_i^n"]),
    ("conjecture", "c_i^n", lambda report: ", ".join(report["solved"])),
], ids=["coefficients", "conjecture"])
def test_coefficient_reports_write_well_formed_csv(capsys, command, column,
                                                  expected_of):
    # the list field holds ", ", so csv quotes it
    code, out, _ = run_cli(capsys, command, "--max-n", "5", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    _, out, _ = run_cli(capsys, command, "--max-n", "5", "--format", "json")
    reports = json.loads(out)
    assert len(rows) == len(reports) == 4
    for row, report in zip(rows, reports):
        assert len(row) == len(header)
        assert dict(zip(header, row))[column] == expected_of(report)


def test_koszul_numbers_usage_error(capsys):
    code, _, err = run_cli(capsys, "koszul-numbers", "--max-n", "0")
    assert code == 2
    assert "max-n" in err


@pytest.mark.parametrize("command", [
    "koszul-numbers", "coefficients", "conjecture", "verify series",
])
def test_reports_refuse_max_n_above_their_limit(capsys, command):
    assert cli.REPORT_MAX_N == 200
    code, out, err = run_cli(capsys, *command.split(), "--max-n", "201")
    assert code == 2
    assert out == ""
    assert err == "error: --max-n must be <= 200\n"


def test_coefficients_table(capsys):
    code, out, _ = run_cli(capsys, "coefficients", "--max-n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert "1, 1" in lines[1]
    assert "4/9, 40/9, 40, 280, 1120" in lines[4]
    assert all("match" in line for line in lines[1:])


def test_coefficients_requires_n_at_least_two(capsys):
    code, _, err = run_cli(capsys, "coefficients", "--max-n", "1")
    assert code == 2
    assert err


def test_conjecture_json_report(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "4",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [entry["n"] for entry in report] == [2, 3, 4]
    for entry in report:
        assert entry["match"] is True
        assert entry["positive"] is True
        assert entry["bn_zero"] is True
        assert entry["solved"] == entry["conjectured"]
    assert report[0]["solved"] == ["1/2", "1/2"]


def test_conjecture_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "conjecture", "--max-n", "5")
    _, second, _ = run_cli(capsys, "conjecture", "--max-n", "5")
    assert first == second


def test_verify_series_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "series")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_small_algebra_all_suites(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "all",
        "--even", "1", "--odd", "1", "--degree", "3", "--max-n", "3",
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_empty_algebra_is_vacuous(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "all",
        "--even", "0", "--odd", "0", "--degree", "1", "--max-n", "2",
    )
    assert code == 0
    assert "FAIL" not in out


def test_verify_order_and_polynomial_list_their_labels(capsys):
    # neither suite is part of `all`; each runs by name
    for suite, count in (("order", 5), ("polynomial", 53)):
        assert suite not in checks.VERIFY_ALL
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == count + 1
        assert all(line.startswith(f"[pass] {suite}: ") for line in lines[:-1])
        assert lines[-1] == f"{count}/{count} checks passed"


@pytest.mark.parametrize("flags, skipped", [
    (["--noncommutative"], "order (skipped: needs a unital commutative signature)"),
    (["--even", "0"], "order d/dx1 (skipped: needs an even generator)"),
])
def test_verify_order_skips_missing_operators(capsys, flags, skipped):
    code, out, _ = run_cli(capsys, "verify", "order", *flags)
    assert code == 0
    assert f"[pass] order: {skipped}" in out.splitlines()


def test_verify_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "linf",
        "--even", "1", "--odd", "1", "--degree", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["ok"] for check in payload["checks"])


def test_verify_noncommutative(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "jacobi",
        "--even", "1", "--odd", "1", "--degree", "3", "--max-n", "3",
        "--noncommutative",
    )
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("suite, max_n", [
    ("all", "0"), ("universal", "-3"), ("jacobi", "-3"),
])
def test_verify_rejects_max_n_below_one(capsys, suite, max_n):
    code, out, err = run_cli(capsys, "verify", suite, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--max-n" in err
    assert "Traceback" not in err


def test_verify_reports_each_failure_shape(capsys, monkeypatch):
    sig_args = ["--even", "1", "--odd", "0", "--degree", "2"]

    def suite(sig, N, seed):
        x, x2 = sig.basis()[1:3]
        e = sig.monomial_element(x)
        mismatch = ((x, x2), e, e.scale(2))
        yield "holds", lambda: None
        yield "bare", lambda: False
        yield "text", lambda: "why"
        yield "mismatch", lambda: mismatch
        yield "by degree", lambda: (3, mismatch)

    monkeypatch.setitem(checks.SUITES, "jacobi", suite)
    code, out, _ = run_cli(capsys, "verify", "jacobi", *sig_args,
                           "--format", "json")
    assert code == 1
    counterexample = "first counterexample at (x1,x1^2): lhs = x1, rhs = 2*x1"
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [(c["check"], c["ok"], c["detail"]) for c in payload["checks"]] == [
        ("holds", True, None),
        ("bare", False, None),
        ("text", False, "why"),
        ("mismatch", False, counterexample),
        ("by degree", False, "degree 3: " + counterexample),
    ]
    code, out, _ = run_cli(capsys, "verify", "jacobi", *sig_args)
    assert code == 1
    assert out.splitlines()[-3:] == [
        "[FAIL] jacobi: by degree",
        "       degree 3: " + counterexample,
        "1/5 checks passed",
    ]


def test_plain_verify_prints_each_line_as_its_check_finishes(capsys,
                                                             monkeypatch):
    # a failing check's lines are on stdout before the next check runs and
    # the summary line comes last; JSON output stays one document
    seen = []

    def registry(sig, N, seed, suites):
        yield "jacobi", "first", lambda: "why"
        yield "jacobi", "second", lambda: seen.append(capsys.readouterr().out)

    monkeypatch.setattr(checks, "registry", registry)
    code, out, _ = run_cli(capsys, "verify", "jacobi")
    assert code == 1
    assert seen == ["[FAIL] jacobi: first\n       why\n"]
    assert out == "[pass] jacobi: second\n1/2 checks passed\n"
    code, out, _ = run_cli(capsys, "verify", "jacobi", "--format", "json")
    assert code == 1
    assert seen[1] == ""
    assert [c["check"] for c in json.loads(out)["checks"]] == ["first",
                                                                "second"]


@pytest.mark.parametrize("flags, line, digest", [
    ([], "signature: 1 even, 1 odd, degree <= 3, commutative, unital; "
         "basis 7; canonical tuples by arity 1..3: 7 / 13 / 15",
     "08645b59517c4cc1abecd7f2f0fd6c67e51cdeeb8f2082825384b782a9bcb8db"),
    (["--noncommutative"],
     "signature: 1 even, 1 odd, degree <= 3, associative, unital; "
     "basis 15; canonical tuples by arity 1..3: 15 / 25 / 27",
     "d9cbdbd27d1c6ca38ddc240d41bf917b787f8462c9b8623d96987dbbbdde8768"),
], ids=["commutative", "associative"])
def test_verify_names_its_signature_on_stderr_first(capsys, monkeypatch, flags,
                                                    line, digest):
    # one stderr line, written before the registry is asked for a check;
    # stdout is the pinned report, byte for byte
    seen = []
    registry = checks.registry

    def first_seen(*args):
        seen.append(tuple(capsys.readouterr()))
        return registry(*args)

    monkeypatch.setattr(checks, "registry", first_seen)
    code, out, err = run_cli(capsys, "verify", "all", "--even", "1", "--odd",
                             "1", "--degree", "3", "--max-n", "3", "--format",
                             "json", *flags)
    assert code == 0
    assert seen == [("", line + "\n")] and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_counts_tuples_only_to_the_largest_compared_arity(capsys,
                                                                 monkeypatch):
    # no suite compares tuples of arity above 5, so N = 200 reaches the
    # registry but not the stderr line
    asked = []
    monkeypatch.setattr(checks, "registry",
                        lambda *args: asked.append(args[1:]) or iter(()))
    code, out, err = run_cli(capsys, "verify", "series", "--max-n", "200")
    assert code == 0 and out == "0/0 checks passed\n"
    assert asked == [(200, 42, ["series"])]
    assert err == ("signature: 2 even, 2 odd, degree <= 5, commutative, "
                   "unital; basis 61; canonical tuples by arity 1..5: "
                   "61 / 341 / 641 / 753 / 773\n")


@pytest.mark.parametrize("sig", [
    Signature(even=2, odd=2, degree_bound=5),
    Signature(even=0, odd=3, degree_bound=4),
    Signature(even=3, odd=0, degree_bound=4, unital=False),
    Signature(even=2, odd=1, degree_bound=3, commutative=False),
    Signature(even=0, odd=2, degree_bound=3, commutative=False, unital=False),
], ids=repr)
def test_basis_counts_match_the_basis(sig):
    # counted without building the basis
    by_formula = checks._basis_counts(sig)
    assert sig._basis is None
    counts = {}
    for key in zip(sig.basis_degrees(), sig.basis_parities()):
        counts[key] = counts.get(key, 0) + 1
    assert by_formula == counts


def test_signature_line_counts_every_canonical_tuple():
    # counted by degree and parity, as _index_tuples lists them; on
    # (2,2,D) the counts of arities 1..6 are those the roadmap lists
    for sig in (Signature(even=1, odd=2, degree_bound=3, unital=False),
                Signature(even=2, odd=1, degree_bound=3, commutative=False),
                Signature(even=0, odd=3, degree_bound=4),
                Signature(even=3, odd=0, degree_bound=5)):
        assert checks._tuple_counts(sig, 7) == [
            len(_index_tuples(sig, k)) for k in range(1, 8)]
    assert [checks._tuple_counts(Signature(even=2, odd=2, degree_bound=d), 6)
            for d in (5, 6, 7)] == [
        [61, 341, 641, 753, 773, 773],
        [85, 645, 1545, 2057, 2205, 2229],
        [113, 1121, 3365, 5189, 5913, 6097],
    ]


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_verify_refuses_csv(capsys):
    code, out, err = run_cli(capsys, "verify", "series", "--format", "csv")
    assert code == 2
    assert not out
    assert "invalid choice: 'csv'" in err


def test_bad_flag_returns_usage_error(capsys):
    code, out, err = run_cli(capsys, "koszul-numbers", "--max-n", "x")
    assert code == 2
    assert out == ""
    assert err.startswith("usage:")
    assert err.endswith(": error: argument --max-n: invalid int value: 'x'\n")
    assert [line for line in err.splitlines() if "error:" in line] == [
        err.splitlines()[-1]
    ]


@pytest.mark.parametrize("flags, message", [
    (("all", "--even", "-1"), "generator counts must be non-negative"),
    (("inversion", "--degree", "0"), "degree bound must be >= 1"),
], ids=["negative count", "degree zero"])
def test_verify_refuses_a_bad_signature_as_usage_error(capsys, flags, message):
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_koszul_numbers_exits_one_when_the_routes_disagree(capsys, monkeypatch):
    original = cli.koszul_numbers_chain

    def off_at_three(N):
        chain = original(N)
        chain[3] += 1
        return chain

    monkeypatch.setattr(cli, "koszul_numbers_chain", off_at_three)
    code, out, err = run_cli(capsys, "koszul-numbers", "--max-n", "5")
    assert code == 1
    assert out == ""
    assert err == ("error: computation routes disagree at n = 3: "
                   "recursive 1/2, chain 3/2, itlog 1/2\n")


@pytest.mark.parametrize("command", ["coefficients", "conjecture"])
def test_coefficient_reports_turn_arithmetic_error_into_exit_one(
        capsys, monkeypatch, command):
    def failing_series(N):
        raise ArithmeticError("auxiliary coefficient b_3 = 1 != 0")

    monkeypatch.setattr(cli, "coefficient_series", failing_series)
    code, out, err = run_cli(capsys, command, "--max-n", "4")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: auxiliary coefficient b_3 = 1 != 0"]
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [
    ArithmeticError("auxiliary coefficient b_2 = 1/2 != 0"),
    SingularMatrixError("3x3 system has determinant 0"),
], ids=["b_n", "singular"])
def test_verify_reports_a_failed_solve_as_failed_checks(capsys, monkeypatch,
                                                        error):
    # the universal suite solves inside its standard-form checks, so a
    # failed solve fails those checks and every other check still runs
    def failing_series(N):
        raise error

    monkeypatch.setattr(checks, "coefficient_series", failing_series)
    code, out, err = run_cli(capsys, "verify", "universal", "--even", "1",
                             "--odd", "1", "--degree", "3", "--max-n", "4")
    assert code == 1
    assert "Traceback" not in err
    lines = out.splitlines()
    failed = [(line, lines[i + 1]) for i, line in enumerate(lines)
              if line.startswith("[FAIL]")]
    assert failed == [
        (f"[FAIL] universal: standard form degree {n} seed={seed}",
         f"       {error}")
        for seed in (42, 43, 44) for n in (2, 3, 4)]
    passed = sum(line.startswith("[pass]") for line in lines)
    assert lines[-1] == f"{passed}/{passed + 9} checks passed"


def _perturb_conjecture(monkeypatch, degree, index):
    """Make the conjectured c_(index+1)^degree one more than the solved one."""
    numerators_of = cli.conjecture_numerators

    def perturbed(n):
        numerators, denominator = numerators_of(n)
        if n == degree:
            numerators = list(numerators)
            numerators[index] += denominator
        return numerators, denominator

    monkeypatch.setattr(cli, "conjecture_numerators", perturbed)


def test_reports_show_one_perturbed_conjectured_coefficient(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "conjecture", "--max-n", "7", "--format", "json")
    clean = json.loads(out)
    _perturb_conjecture(monkeypatch, 5, 2)
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "7",
                           "--format", "json")
    assert code == 0
    for before, after in zip(clean, json.loads(out), strict=True):
        assert after["solved"] == before["solved"]
        if after["n"] != 5:
            assert after == before
            continue
        assert before["match"] is True and after["match"] is False
        differ = [i for i, (a, b) in enumerate(zip(after["solved"],
                                                   after["conjectured"]))
                  if a != b]
        assert differ == [2]
        assert Rational(after["conjectured"][2]) == Rational(after["solved"][2]) + 1
    code, out, _ = run_cli(capsys, "coefficients", "--max-n", "7")
    assert code == 0
    assert [line.split()[0] + " " + line.split()[-1]
            for line in out.splitlines()[1:]] == [
        f"{n} {'MISMATCH' if n == 5 else 'match'}" for n in range(2, 8)]


def test_positive_follows_the_sign_of_each_solved_coefficient(capsys, monkeypatch):
    series_of = cli.coefficient_series

    def flipped(N):
        series = series_of(N)
        c = list(series[4])
        c[1] = -c[1]
        series[4] = tuple(c)
        return series

    monkeypatch.setattr(cli, "coefficient_series", flipped)
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "6",
                           "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["positive"] for r in reports] == [True, True, False, True, True]
    assert reports[2]["solved"][1].startswith("-")
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "6")
    assert code == 0
    positive_column = [line.split()[-2] for line in out.splitlines()[1:]]
    assert positive_column == ["yes", "yes", "NO", "yes", "yes"]


def _fresh_process(argv):
    """(exit code, stdout) of ``main(argv)`` in a new interpreter."""
    src = str(Path(antibrackets.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    script = "import sys; from antibrackets.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


def test_repeated_main_calls_match_fresh_processes(capsys):
    # The parser is built once per process; a usage error in between and
    # flags given only to the first call must not leak into the third.
    calls = [
        ["koszul-numbers", "--max-n", "4", "--format", "json"],
        ["conjecture", "--max-n", "not-a-number"],
        ["coefficients", "--max-n", "4"],
    ]
    in_process = []
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        in_process.append((code, out))
    assert build_parser() is build_parser()
    assert [code for code, _ in in_process] == [0, 2, 0]
    assert in_process == [_fresh_process(argv) for argv in calls]


@pytest.mark.parametrize("argv, digest", [
    (["conjecture", "--max-n", "20", "--format", "json"],
     "1769d8a6480a7ed47f479d5e17e00e6b2c65f960c1f56b0fb9eaefe7a9db838a"),
    (["conjecture", "--max-n", "45", "--format", "json"],
     "2ee5c9ac9921b3f6524541fa5e26a52f2225f23cbc7e3a8e3eb93a2573021d3d"),
    (["coefficients", "--max-n", "20", "--format", "json"],
     "8952dbd19b1eac93c6dfc18c350cb00454cb6609243a85663a396999b1c3be54"),
    (["koszul-numbers", "--max-n", "25", "--format", "json"],
     "29fb9e42ff0f0ed8ed64581ccb3079e8b75a1535cf2ec94461c7a243810dda32"),
    (["koszul-numbers", "--max-n", "40"],
     "5af79e2296d84ac4c127831ac99b21a3540a3d767a71ca06623906573cff4ca9"),
    (["koszul-numbers", "--max-n", "80"],
     "7aa6913be3a25a668680d69b84b15ffa0c02564a9dc60e7324d554c45b166392"),
    (["conjecture", "--max-n", "12"],
     "6a5ca6fd08aeb35cd0ce963845fed4213f38346ab6294b9e3505d002ef6cec92"),
    (["conjecture", "--max-n", "12", "--format", "csv"],
     "7721df963899865f238e212a8a7aff136b60c5bdea92cf2e8c459b8210187b06"),
    (["coefficients", "--max-n", "12"],
     "61eae260c0e3ebef9ec7f507d5cf42671a090f4595ec972cb190d48a5a75e35a"),
    (["coefficients", "--max-n", "12", "--format", "csv"],
     "dcb7b9f4949e64c23dcbcbc629c450c1a1cdb37d605e67f7d52ae4aba2f69cb6"),
    (["verify", "all", "--even", "1", "--odd", "1", "--degree", "3",
      "--max-n", "3", "--format", "json"],
     "08645b59517c4cc1abecd7f2f0fd6c67e51cdeeb8f2082825384b782a9bcb8db"),
    (["verify", "all", "--even", "1", "--odd", "1", "--degree", "3",
      "--max-n", "3", "--format", "json", "--noncommutative"],
     "d9cbdbd27d1c6ca38ddc240d41bf917b787f8462c9b8623d96987dbbbdde8768"),
    (["verify", "inversion", "--even", "3", "--odd", "3", "--degree", "8",
      "--format", "json"],
     "0d4c8f4876a0bf6cd3656a06b4ececbee2b3161a8ede60b2b40b394f88f3e1d3"),
    (["verify", "all", "--even", "3", "--odd", "3", "--degree", "4"],
     "aa12a1f769ea886d717c9885ee0512afcc82084844567ab6a2487118c11a8a05"),
    # two 3,649-monomial operators whose passing checks read no image
    (["verify", "inversion", "--even", "4", "--odd", "4", "--degree", "8"],
     "92f63ab8b33ad229acc7f192a9ed7e96048899fed575a850873631c10e79e2f0"),
    # the Julia equation at order 100
    (["verify", "series", "--max-n", "100"],
     "d0035baf597f8aca0d58f18cc07733868360b928baccdfc9fb46a5f3f2acd37b"),
], ids=["conjecture", "conjecture-45", "coefficients", "koszul-numbers",
        "koszul-numbers-40", "koszul-numbers-80", "conjecture-plain",
        "conjecture-csv", "coefficients-plain", "coefficients-csv", "verify",
        "verify-noncommutative", "verify-inversion", "verify-334",
        "verify-inversion-448", "verify-series-100"])
def test_report_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def hierarchy_to_json(h: dict, max_total_degree=None) -> list:
    """JSON-ready tables of a hierarchy {n: Phi^n}:
    [{"n": k, "table": [[tuple, element], ...]}, ...]."""
    sig = h[1].signature
    names = [sig.monomial_str(m) for m in sig.basis()]
    out = []
    for n, op in sorted(h.items()):
        table = []
        for tup in _index_tuples(sig, op.arity, max_total_degree):
            val = op._canonical_value(tup)
            if not val:
                continue
            table.append(
                [
                    [names[i] for i in tup],
                    {names[k]: format_rational(c) for k, c in sorted(val.items())},
                ]
            )
        out.append({"n": n, "table": table})
    return out


def test_hierarchy_json_round_trip():
    sig = Signature(even=1, odd=1, degree_bound=3)
    f = random_endo(sig, 2, parity="even")
    h = phi_hierarchy(f, 2)
    payload = json.loads(json.dumps(hierarchy_to_json(h, 2)))
    assert [entry["n"] for entry in payload] == [1, 2]
    for entry in payload:
        for tup, element in entry["table"]:
            assert len(tup) == entry["n"]
            for coeff in element.values():
                Rational(coeff)


@pytest.mark.parametrize("method", ["direct", "recursion", "bracket", "exponential"])
@pytest.mark.parametrize("seed, parity, digest", [
    (7, "even", "3722ef674b3f0a01035540ef8b8be8035cfc161af6d46c6cad52ff92bad18527"),
    (8, "odd", "f3e27c77876c8fbddd9ff4b94a5b0dcc5984b9e6ef4be96a4ac5dfe16ba9b25d"),
], ids=["even", "odd"])
def test_hierarchy_json_is_pinned(method, seed, parity, digest):
    # dense operators on (2,2,3), N = 5; the four routes give the same tables
    sig = Signature(even=2, odd=2, degree_bound=3)
    f = random_endo(sig, seed, parity=parity, density=1.0)
    text = json.dumps(hierarchy_to_json(phi_hierarchy(f, 5, method=method)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("method", ["bracket", "exponential"])
@pytest.mark.parametrize("seed, parity, digest", [
    (7, "even", "292ac420dd9c25a74332a693cfe3750ecfbbb6e611dcc52bab8ec55cb406508b"),
    (8, "odd", "aff2103950aea58389bc8d4803d4b8537b476ae809f2f990fadc9695b987b1c6"),
], ids=["even", "odd"])
def test_associative_hierarchy_json_is_pinned(method, seed, parity, digest):
    # dense operators on the associative (2,1,3), N = 4; both routes give
    # the same tables
    sig = Signature(even=2, odd=1, degree_bound=3, commutative=False)
    f = random_endo(sig, seed, parity=parity, density=1.0)
    text = json.dumps(hierarchy_to_json(phi_hierarchy(f, 4, method=method)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
