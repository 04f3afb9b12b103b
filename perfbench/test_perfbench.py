"""Tests of the benchmark itself: tracer hygiene, repeatable counts, the gate.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from run import LAYERS, load_library, run_checks, traced_run
from tracer import LibraryProbe
from workloads import WORKLOADS, Check, Plan, routes_agree

SRC = Path(__file__).resolve().parents[1] / "src"


def _snapshot(package, layers):
    owners = [package, *layers.values(),
              layers["multilinear"].MultiOp, layers["superalgebra"].Signature,
              layers["superalgebra"].AlgebraElement,
              layers["rational"].Rational]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_restores_every_patched_attribute():
    package, layers = load_library(SRC)
    before = _snapshot(package, layers)
    original = package.nr_bracket
    with LibraryProbe(package, layers):
        wrapped = package.nr_bracket
        assert wrapped is not original
        # bound by name in three namespaces; every binding is patched
        assert layers["brackets"].nr_bracket is wrapped
        assert layers["cli"].nr_bracket is wrapped
        assert layers["multilinear"].nr_bracket is wrapped
    after = _snapshot(package, layers)
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_tracer_restores_after_an_exception():
    package, layers = load_library(SRC)
    before = _snapshot(package, layers)
    with pytest.raises(RuntimeError):
        with LibraryProbe(package, layers):
            raise RuntimeError("boom")
    after = _snapshot(package, layers)
    assert all(before[key] is after[key] for key in before)


def test_every_layer_is_traced():
    package, layers = load_library(SRC)
    assert tuple(layers) == LAYERS
    with LibraryProbe(package, layers) as probe:
        names = {name.split(".")[0] for name in probe.tracer.stats}
    assert names == set(LAYERS)


def test_traced_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["constructions"]
    runs = [traced_run(workload, SRC, 42, 1, tmp_path) for _ in range(2)]
    for _, attempted, failed, _, extra in runs:
        assert failed == 0
        assert extra["compared_tuples"] == extra["expected_compared_tuples"]
    counts = [
        {name: value for name, (value, unit) in metrics.items()
         if unit in ("count", "ratio") and name != "trace.overhead"}
        for _, _, _, metrics, _ in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["multilinear.value.calls"] > 0
    assert counts[0]["rational.fraction_ops"] > 0


def _hierarchy(package, sig, seed, method):
    f = package.random_endo(sig, seed, parity="even")
    return package.phi_hierarchy(f, 3, method=method)


@pytest.mark.parametrize("other_seed, failures", [(42, 0), (43, 1)])
def test_gate_counts_a_mismatched_pair(other_seed, failures):
    package, _ = load_library(SRC)
    sig = package.Signature(even=1, odd=1, degree_bound=3)
    direct = _hierarchy(package, sig, 42, "direct")
    bracket = _hierarchy(package, sig, other_seed, "bracket")
    check = Check("constructions",
                  lambda span: routes_agree(package, direct, [bracket], 3))
    intervals, failed = run_checks(Plan([check], {}))
    assert failed == failures
    assert (failed / len(intervals) > 0) == bool(failures)
