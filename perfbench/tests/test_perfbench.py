"""Tests of the benchmark's own machinery: span self time, the percentile
rule, metric names, and failure accounting.

Run with:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from netid.experiments import RunResult  # noqa: E402

# A name is a letter or digit, then at most 63 of letters, digits, _ . -;
# a unit is at most 16 of letters, digits, _ / % . -
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, name, start, end, parent=None, thread=1, cpu=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "unit": 0, "thread": thread,
            "cpu_s": end - start if cpu is None else cpu, **attrs}


class TestSelfTime:
    def test_overlapping_children_are_merged_not_summed(self):
        spans = [span(1, "experiments.run_monte_carlo", 0.0, 10.0),
                 span(2, "sim.simulate", 1.0, 6.0, parent=1, thread=2),
                 span(3, "sim.simulate", 4.0, 8.0, parent=1, thread=3)]
        own = tracing.self_times(spans)
        assert own[1] == pytest.approx(10.0 - 7.0)  # union [1, 8]
        assert own[2] == pytest.approx(5.0)
        assert own[3] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert tracing.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) \
            == pytest.approx(2.0)

    def test_disjoint_and_nested_children(self):
        assert tracing.covered([(1, 2), (3, 4), (3.5, 3.7), (2, 2)], 0, 10) \
            == pytest.approx(2.0)


class TestLayerMetrics:
    def test_absent_layers_report_zero_calls(self):
        metrics = tracing.layer_metrics([], 2)
        names = [n for n, _, _ in tracing.PER_LAYER]
        assert set(metrics) == set(names) - {"trace.overhead_runs_per_s"}
        assert metrics["local.estimate_T_entries.calls"] == 0
        assert metrics["experiments.pool_util"] == 0.0
        assert all(math.isfinite(v) for v in metrics.values())

    def test_pool_util_uses_child_cpu_over_batch_capacity(self):
        spans = [span(1, "experiments.run_monte_carlo", 0.0, 10.0, cpu=0.0),
                 span(2, "sim.simulate", 0.0, 10.0, parent=1, thread=2,
                      cpu=6.0, node_samples=100),
                 span(3, "sim.simulate", 0.0, 10.0, parent=1, thread=3,
                      cpu=4.0, node_samples=100)]
        metrics = tracing.layer_metrics(spans, 2)
        assert metrics["experiments.pool_util"] == pytest.approx(0.5)
        assert metrics["sim.simulate.node_samples_per_s"] == pytest.approx(10)
        assert metrics["experiments.run_monte_carlo.self_s"] == \
            pytest.approx(0.0)

    def test_pool_util_counts_an_idle_worker(self):
        # Both runs on one of two pool threads: half the pool sat idle.
        spans = [span(1, "experiments.run_monte_carlo", 0.0, 10.0, cpu=0.0),
                 span(2, "sim.simulate", 0.0, 5.0, parent=1, thread=2),
                 span(3, "sim.simulate", 5.0, 10.0, parent=1, thread=2)]
        assert tracing.layer_metrics(spans, 2)["experiments.pool_util"] == \
            pytest.approx(0.5)


class TestTracer:
    def test_missing_target_is_skipped(self):
        tracer = tracing.Tracer()
        assert not tracer.wrap(SimpleNamespace(), "simulate", "sim.simulate")

    def test_worker_spans_take_the_owner_span_as_parent(self):
        mod = SimpleNamespace(work=lambda x: x * 2, batch=None)

        def batch(n):
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(mod.work, range(n)))

        mod.batch = batch
        tracer = tracing.Tracer()
        tracer.wrap(mod, "work", "child")
        tracer.wrap(mod, "batch", "parent")
        assert mod.batch(4) == [0, 2, 4, 6]
        tracer.restore()
        assert mod.batch is batch
        (parent,) = [s for s in tracer.spans if s["name"] == "parent"]
        children = [s for s in tracer.spans if s["name"] == "child"]
        assert len(children) == 4
        assert all(c["parent"] == parent["id"] for c in children)
        assert all(c["thread"] != threading.get_ident() for c in children)


class TestCycleMedian:
    def test_one_kind_is_the_plain_median(self):
        assert stats.cycle_median([3.0, 1.0, 2.0, 9.0], 1) == 2.5

    def test_kinds_are_medianed_apart_then_averaged(self):
        # Alternating cheap and dear units: the plain median would sit
        # between the two groups and jump with their counts.
        unit_s = [1.0, 2.0, 1.1, 2.2, 0.9, 2.1, 5.0]
        assert stats.cycle_median(unit_s, 2) == pytest.approx((1.05 + 2.1) / 2)


class TestTracedUnits:
    @pytest.mark.parametrize("cycle", [1, 2, 4])
    def test_every_position_is_traced_and_untraced_over_two_cycles(self,
                                                                   cycle):
        flags = [stats.traced_unit(k, cycle) for k in range(2 * cycle)]
        for pos in range(cycle):
            assert {flags[pos], flags[pos + cycle]} == {False, True}
        assert sum(flags) == cycle


class TestPercentileRule:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert stats.tail_percentile(list(range(99)), 90) is None
        assert stats.tail_percentile(list(range(100)), 90) is not None

    def test_p99_needs_a_thousand(self):
        assert stats.tail_percentile([1.0] * 999, 99) is None
        assert stats.tail_percentile([1.0] * 1000, 99) == 1.0

    def test_value(self):
        assert stats.tail_percentile([float(v) for v in range(1, 101)], 90) \
            == pytest.approx(90.1)


class TestNames:
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layer = [(m["name"], m["unit"], m["better"])
                 for m in spec["per_layer"]]
        assert e2e == list(run.END_TO_END)
        assert layer == list(tracing.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == \
            list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
        names = [n for n, _ in e2e] + [n for n, _, _ in layer]
        assert len(set(names)) == len(names)
        assert all(NAME_RE.fullmatch(n) for n in names)
        assert all(UNIT_RE.fullmatch(u) for _, u in e2e)
        assert all(UNIT_RE.fullmatch(u) for _, u, _ in layer)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" \
            and setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


class TestFailureAccounting:
    def test_recorded_error_counts_as_failed_not_as_nan(self):
        runs = [RunResult(run=0, a1=-0.3, a2=0.8, informative=True),
                RunResult(run=1, a1=math.nan, a2=math.nan, informative=False,
                          error="[simulate] diverged")]
        assert workloads.count_runs(runs) == (2, 1)

    def test_nan_without_error_fails_the_accuracy_check(self):
        wl = object.__new__(workloads.Workload)
        wl.problems, wl.coef_err_max = [], 0.0
        wl.check_coefficients("run 0", (math.nan, 0.8), (-0.3, 0.8))
        assert wl.problems and wl.coef_err_max == 0.0

    def test_raised_unit_counts_every_run_as_failed(self):
        wl = object.__new__(workloads.Workload)
        wl.attempted = wl.failed = 0
        wl.problems = []
        wl.fail(8, "batch 0", RuntimeError("boom"))
        assert (wl.attempted, wl.failed) == (8, 8)
        assert "boom" in wl.problems[0]
