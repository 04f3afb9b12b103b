"""Benchmark driver for the antibrackets library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload constructions --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the current directory, never from
an installed copy. One run is one process on one thread. It sets the
library up several times (fresh import, signatures, operators, tuples) and
reports the median as ``setup_s``, then runs the workload's fixed list of
checks, timing each call from outside. Times are scaled to reference
seconds by the machine-speed samples of :mod:`speed`; the raw times are in
the record line. With ``--trace 1`` it runs a prefix of the checks twice,
untraced and then under the outside-in tracer, and reports per-layer
counts and raw times plus the tracing overhead; end-to-end numbers only
ever come from untraced runs.

Two JSON lines go to stdout: a record of the environment and the domain,
then the result ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every check passed and the domain matched, 1 otherwise, and
2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import ELEMENT_OPS, FRACTION_OPS, LibraryProbe
from workloads import WORKLOADS

PACKAGE = "antibrackets"
LAYERS = ("rational", "combinatorics", "series", "superalgebra",
          "multilinear", "brackets", "qxrep", "cli")
SETUP_REPEATS = 5
TRACE_SHARE = 4  # a traced run covers the first 1/TRACE_SHARE of the checks


class LibraryMissing(Exception):
    pass


def load_library(src):
    """Fresh import of the package from ``src``; returns (package, layers)."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        package = importlib.import_module(PACKAGE)
        layers = {name: importlib.import_module(f"{PACKAGE}.{name}")
                  for name in LAYERS}
    except ImportError as exc:
        raise LibraryMissing(str(exc)) from exc
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise LibraryMissing(f"{PACKAGE} resolved to {package.__file__}")
    return package, layers


def run_checks(plan, span=None, before_check=None, after_check=None):
    """Run every check; returns ((start, end) per check, failed count)."""
    span = span or (lambda name: contextlib.nullcontext())
    intervals = []
    failed = 0
    clock = time.perf_counter
    for check in plan.checks:
        if before_check is not None:
            before_check()
        start = clock()
        try:
            with span("check"):
                ok = bool(check.run(span))
        except Exception:  # a raising check is a failed check
            traceback.print_exc(file=sys.stderr)
            ok = False
        intervals.append((start, clock()))
        if not ok:
            failed += 1
            print(f"check failed: {check.kind}", file=sys.stderr)
        if after_check is not None:
            after_check()
    return intervals, failed


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, src, seed, count):
    speed = SpeedProbe()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        package, _ = load_library(src)
        plan = workload.build(package, seed, count)
        setup_s.append(time.perf_counter() - start)
    intervals, failed = run_checks(plan, before_check=speed.sample_if_due)
    speed.sample()
    raw = [end - start for start, end in intervals]
    scale = speed.scale()
    latencies = [t * scale for t in raw]
    metrics = {
        "wall_s": (sum(latencies), "s"),
        "setup_s": (statistics.median(setup_s) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "check_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "check_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
    }
    measured = {
        "raw_wall_s": sum(raw),
        "raw_setup_s": statistics.median(setup_s),
        "speed_sample_mean_s": statistics.fmean(speed.durations),
        "speed_samples": len(speed.durations),
    }
    return plan, len(latencies), failed, metrics, measured


def traced_run(workload, src, seed, count, out_dir):
    count = math.ceil(count / TRACE_SHARE)
    package, _ = load_library(src)
    base, base_failed = run_checks(workload.build(package, seed, count))

    package, layers = load_library(src)
    plan = workload.build(package, seed, count)
    probe = LibraryProbe(package, layers)
    with probe:
        with probe.tracer.span("workload"):
            traced, failed = run_checks(plan, probe.tracer.span,
                                        after_check=probe.end_check)
    domain_sizes = {}
    compared = 0
    for sig, arity, bound in probe.compared:
        key = (id(sig), arity, bound)
        if key not in domain_sizes:
            domain_sizes[key] = len(layers["multilinear"].canonical_tuples(
                sig, arity, bound))
        compared += domain_sizes[key]
    metrics = layer_metrics(probe, compared, _busy(traced) / _busy(base))
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}-{seed}.json"
    trace_file.write_text(json.dumps({
        "spans": probe.tracer.spans,
        "stats": probe.tracer.stats,
    }))
    extra = {
        "traced_checks": count,
        "compared_tuples": compared,
        "expected_compared_tuples": workload.compared_tuples_per_check * count,
        "trace_file": str(trace_file),
    }
    attempted = len(base) + len(traced)
    return plan, attempted, base_failed + failed, metrics, extra


def _busy(intervals):
    return sum(end - start for start, end in intervals)


def layer_metrics(probe, compared, overhead):
    t = probe.tracer
    mul_calls = t.calls("superalgebra.mul_monomials")
    value_calls = t.calls("multilinear.value")
    m = {
        "rational.fraction_ops": (
            sum(t.calls(f"rational.fraction.{a}") for a in FRACTION_OPS), "count"),
        "superalgebra.mul_monomials.calls": (mul_calls, "count"),
        "superalgebra.mul_cache.hit_ratio": (
            1 - probe.distinct_mul_pairs / mul_calls if mul_calls else 0.0,
            "ratio"),
        "superalgebra.mul_monomials.self_s": (
            t.self_s("superalgebra.mul_monomials"), "s"),
        "superalgebra.element_ops": (
            sum(t.calls(f"superalgebra.element.{a}") for a in ELEMENT_OPS),
            "count"),
        "multilinear.value.calls": (value_calls, "count"),
        "multilinear.value.self_s": (t.self_s("multilinear.value"), "s"),
        "multilinear.value.memo_hit_ratio": (
            probe.value_repeats / value_calls if value_calls else 0.0, "ratio"),
        "multilinear.call.calls": (t.calls("multilinear.call"), "count"),
        "multilinear.closure_nodes": (
            sum(t.calls(f"multilinear.{f}")
                for f in ("nr_product", "op_add", "op_scale")), "count"),
        "multilinear.first_mismatch_s": (
            t.total_s("multilinear.first_mismatch"), "s"),
        "multilinear.first_mismatch.tuples": (compared, "count"),
        "multilinear.canonical_tuples_s": (
            t.total_s("multilinear.canonical_tuples"), "s"),
    }
    for route in ("direct", "recursion", "bracket", "exponential"):
        m[f"brackets.construct.{route}_s"] = (
            t.span_seconds(f"construct.{route}"), "s")
    m.update({
        "brackets.inversion_check.self_s": (
            t.self_s("brackets.inversion_check"), "s"),
        "qxrep.solve_coefficients_s": (t.total_s("qxrep.solve_coefficients"), "s"),
        "qxrep.solve_linear_s": (t.total_s("qxrep.solve_linear"), "s"),
        "qxrep.rho_abstract.calls": (t.calls("qxrep.rho_abstract"), "count"),
        "qxrep.conjecture_formula_s": (t.total_s("qxrep.conjecture_formula"), "s"),
        "combinatorics.koszul_chain_s": (
            t.total_s("combinatorics.koszul_numbers_chain"), "s"),
        "combinatorics.koszul_recursive_s": (
            t.total_s("combinatorics.koszul_numbers_recursive"), "s"),
        "series.koszul_itlog_s": (t.total_s("series.koszul_numbers_itlog"), "s"),
        "cli.self_s": (t.self_s("cli.main"), "s"),
        "trace.overhead": (overhead, "ratio"),
    })
    return m


def git_commit(root):
    """HEAD of a git checkout, read without running git; None elsewhere."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_digest(src):
    digest = hashlib.sha256()
    for path in sorted((src / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    workers = os.environ.pop("ANTIBRACKET_WORKERS", None)
    workload = WORKLOADS[args.workload]
    count = workload.checks_for(args.seconds)
    try:
        if args.trace:
            plan, attempted, failed, metrics, extra = traced_run(
                workload, src, args.seed, count, root / ".perfbench")
        else:
            plan, attempted, failed, metrics, extra = timed_run(
                workload, src, args.seed, count)
    except LibraryMissing as exc:
        print(f"error: cannot import {PACKAGE} from {src}: {exc}",
              file=sys.stderr)
        return 2
    planned = len(plan.checks) * (2 if args.trace else 1)
    domain_ok = (plan.domain == workload.domain and attempted == planned
                 and extra.get("compared_tuples")
                 == extra.get("expected_compared_tuples"))
    rational = sys.modules[f"{PACKAGE}.rational"].Rational
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "rational_backend": f"{rational.__module__}.{rational.__name__}",
            "cores": os.cpu_count(),
            "git_commit": git_commit(root),
            "source_sha256": source_digest(src),
            "antibracket_workers_cleared": True,
            "antibracket_workers_was": workers,
        },
        "domain": plan.domain,
        "expected_domain": workload.domain,
        "domain_ok": domain_ok,
        "checks_planned": planned,
        "error_rate": failed / attempted,
        **extra,
    }
    print(json.dumps(record))
    correct = failed == 0 and domain_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
