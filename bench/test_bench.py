"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload with one trial per check through the
same path as ``bench/run.py --trace 1``; the ``rll-2x3`` one takes about a
minute because one trial is the smallest unit of that workload.
"""

from __future__ import annotations

import json
import sys
import types
from collections import namedtuple
from pathlib import Path

import numpy.linalg  # noqa: F401  install() also counts numpy.linalg.svd
import pytest

from one_pass import wrong_checks
from run import measure
from tracer import Group, Tracer, install, layer_metrics
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def scripted_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = Tracer(clock=scripted_clock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.open("root")
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(a)
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(root)
    summary = tracer.summary()
    assert {n: s["self_s"] for n, s in summary.items()} == {
        "root": 3, "a": 2, "b": 1, "c": 4,
    }
    assert summary["root"]["total_s"] == 10
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_counts_and_errors_go_to_innermost_span():
    tracer = Tracer()

    def inner(fail):
        tracer.count("work", 2)
        if fail:
            raise KeyError("boom")

    inner_t = tracer.wrap(inner, "inner")

    def outer(fail):
        tracer.count("work")
        inner_t(fail)

    outer_t = tracer.wrap(outer, "outer")
    outer_t(False)
    with pytest.raises(KeyError):
        outer_t(True)
    assert tracer.counter("work", "inner") == 4
    assert tracer.counter("work", "outer") == 2
    # the error left both spans but is counted once, by the inner one
    assert tracer.counts[("inner", "KeyError")] == 1
    assert tracer.counter("KeyError") == 1
    assert tracer.summary()["inner"]["calls"] == 2


def test_missing_names_are_listed_and_their_metrics_absent(monkeypatch):
    def theta(u):
        return 2 * u

    home = types.ModuleType("fakepkg.elliptic")
    home.theta = theta
    user = types.ModuleType("fakepkg.user")
    user.theta = theta  # bound through ``from .elliptic import theta``
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")),
                      ("fakepkg.elliptic", home), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    groups = (
        Group("elliptic.theta", "elliptic", ("theta", "theta_d1")),
        Group("ncalgebra.span", "ncalgebra", ("span_rank",)),
    )
    tracer = Tracer()
    done = install(tracer, "fakepkg", groups)
    try:
        assert user.theta(3) == 6 and home.theta(1) == 2
    finally:
        done.restore()
    assert user.theta is theta and home.theta is theta
    assert done.missing == ["elliptic.theta_d1", "ncalgebra.span_rank"]
    metrics = layer_metrics(tracer, done, trials=4, null_trials=1)
    assert metrics["elliptic.theta.calls"] == (2, "count")
    assert "ncalgebra.span.calls" not in metrics
    assert "ncalgebra.span.svd_calls" not in metrics
    assert metrics["checks.null_frac"] == (0.25, "ratio")


def test_gate_flags_residuals_at_tolerance_and_off_ranks_but_not_nulls():
    Rep = namedtuple("Rep", "check n m tol residuals rank")
    run = types.SimpleNamespace(reports=[
        Rep("ybe", 2, 1, 1e-9, (1e-15, None), None),
        Rep("fay", 1, 1, 1e-9, (1e-9,), None),
        Rep("rll", 2, 2, 1e-8, (1e-14,), 119),
        Rep("tv-reduce", 1, 2, 1e-8, (1e-15,), 6),
        Rep("relations", 2, 3, 1e-9, (0.0,), 630),
    ])
    assert wrong_checks(run) == ["fay", "rll"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_the_gate(workload):
    record = measure(workload, seed=42, seconds=0, trace=True, trials=1)
    assert record["correct"], record["wrong_checks"]
    assert record["failed"] == 0
    assert record["missing"] == []
    metrics = record["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    calls = {k: v["value"] for k, v in metrics.items()}
    if workload == "kernel-n3":
        assert calls["ncalgebra.defect.calls"] == 0
        assert calls["ncalgebra.l_operator.calls"] == 0
    if workload == "rll-2x3":
        assert calls["ncalgebra.l_operator.calls"] == 4 * calls["checks.trials"]
    assert (record["null_frac"] > 0) == (workload == "skew-tau")
