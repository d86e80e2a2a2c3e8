"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics computed from its spans.

The tracer wraps netid's public functions from outside the package: each
wrapper replaces a module attribute at the place its caller looks it up
(``netid.experiments.simulate`` is the name ``run_monte_carlo`` calls), so no
``src/netid`` code changes.  A target that no longer exists is skipped, and
the layers it fed then report ``calls = 0``.

Each span records its name, start, end, parent span, the benchmark unit it
belongs to and the thread it ran on.  A span opened in a worker thread with
no open span of its own takes as parent the innermost span open on the
thread that created the tracer, which is the ``run_monte_carlo`` call whose
pool runs it.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.simulate.calls", "count", "higher"),
    ("sim.simulate.busy_s", "s", "lower"),
    ("sim.simulate.node_samples_per_s", "1/s", "higher"),
    ("direct.build_regressor.busy_s", "s", "lower"),
    ("direct.estimate_direct.calls", "count", "higher"),
    ("direct.estimate_direct.self_s", "s", "lower"),
    ("direct.informative_frac", "ratio", "higher"),
    ("local.estimate_T_entries.calls", "count", "higher"),
    ("local.estimate_T_entries.busy_s", "s", "lower"),
    ("local.estimate_T_entries.phi_mb", "MB_computed", "lower"),
    ("local.solve.busy_s", "s", "lower"),
    ("local.solve.dropped_frac", "ratio", "lower"),
    ("local.fit_parametric.busy_s", "s", "lower"),
    ("experiments.run_monte_carlo.self_s", "s", "lower"),
    ("experiments.pool_util", "ratio", "higher"),
    ("experiments.run_local_pipeline.self_s", "s", "lower"),
    ("experiments.emit_results.busy_s", "s", "lower"),
    ("experiments.emit_results.bytes", "B", "lower"),
    ("model.load_s", "s", "lower"),
    ("trace.overhead_runs_per_s", "runs/s", "higher"),
)


def _probe_simulate(args, kwargs, out):
    return {"node_samples": int(out.w.size)}


def _probe_direct(args, kwargs, out):
    return {"informative": bool(out.informative)}


def _probe_t_entries(args, kwargs, out):
    # Phi has N - P rows and one column per (excitation, lag) pair.
    record = args[0] if args else kwargs["record"]
    p = int(out.fir_order)
    rows = record.N - p
    return {"phi_mb": rows * len(out.cols) * (p + 1) * 8 / 1e6}


def _probe_solve(args, kwargs, out):
    return {"dropped": int(out.dropped_points), "points": int(out.total_points)}


def _probe_emit(args, kwargs, out):
    return {"bytes": sum(Path(p).stat().st_size for p in out)}


#: (module, attribute, span name, probe) for every wrapped call site.
WRAPS = (
    ("netid.model", "load_network", "model.load_network", None),
    ("netid.sim", "simulate", "sim.simulate", _probe_simulate),
    ("netid.experiments", "simulate", "sim.simulate", _probe_simulate),
    ("netid.direct", "build_regressor", "direct.build_regressor", None),
    ("netid.direct", "estimate_direct", "direct.estimate_direct", _probe_direct),
    ("netid.experiments", "estimate_direct", "direct.estimate_direct",
     _probe_direct),
    ("netid.local", "estimate_T_entries", "local.estimate_T_entries",
     _probe_t_entries),
    ("netid.experiments", "estimate_T_entries", "local.estimate_T_entries",
     _probe_t_entries),
    ("netid.local", "solve_source_side", "local.solve", _probe_solve),
    ("netid.local", "solve_sink_side", "local.solve", _probe_solve),
    ("netid.experiments", "solve_source_side", "local.solve", _probe_solve),
    ("netid.experiments", "solve_sink_side", "local.solve", _probe_solve),
    ("netid.local", "fit_parametric", "local.fit_parametric", None),
    ("netid.experiments", "fit_parametric", "local.fit_parametric", None),
    ("netid.experiments", "run_monte_carlo", "experiments.run_monte_carlo",
     None),
    ("netid.experiments", "run_local_pipeline",
     "experiments.run_local_pipeline", None),
    ("netid.experiments", "emit_results", "experiments.emit_results",
     _probe_emit),
)


class Tracer:
    """Collects spans from the wrapped call sites; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self.unit: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span; yields its record, to which
        the caller may add attributes."""
        stack = self._stack()
        # Slicing is atomic, so this read is safe while the owner pushes/pops.
        outer = stack[-1:] or self._owner_stack[-1:]
        rec = {"id": next(self._ids), "name": name,
               "parent": outer[0] if outer else None, "unit": self.unit,
               "thread": threading.get_ident()}
        stack.append(rec["id"])
        cpu0 = time.thread_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_s"] = time.thread_time() - cpu0
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, module, attr: str, name: str, probe=None) -> bool:
        """Replace module.attr by a traced wrapper; False if it is absent."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if probe is not None:
                    try:
                        rec.update(probe(args, kwargs, out))
                    except (AttributeError, TypeError, KeyError, IndexError,
                            ValueError, OSError):
                        pass  # the call's shape changed: keep the timing only
                return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))
        return True

    def install(self) -> None:
        for mod_name, attr, name, probe in WRAPS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                continue
            self.wrap(module, attr, name, probe)

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children of a pool batch overlap each other, so their durations are not
    summed but merged."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(kids[s["id"]], s["start"], s["end"]) for s in spans}


def layer_metrics(spans, workers: int) -> dict[str, float]:
    """Per-layer metrics (all of PER_LAYER except the tracing overhead).

    busy_s sums the wall time of a layer's spans, so for calls made on a
    pool's threads it includes time spent waiting for the interpreter lock.
    `workers` is the size of run_monte_carlo's pool."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    own = self_times(spans)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    # Pool utilization: CPU time the batch's children ran, over the batch wall
    # time times the pool's threads.  Thread CPU time, not wall time, so that
    # children waiting on the interpreter lock do not count.
    pool_cpu = pool_capacity = 0.0
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    for batch in by_name["experiments.run_monte_carlo"]:
        pool_cpu += sum(k["cpu_s"] for k in children[batch["id"]])
        pool_capacity += (batch["end"] - batch["start"]) * workers

    return {
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.simulate.busy_s": busy("sim.simulate"),
        "sim.simulate.node_samples_per_s": ratio(
            attr_sum("sim.simulate", "node_samples"), busy("sim.simulate")),
        "direct.build_regressor.busy_s": busy("direct.build_regressor"),
        "direct.estimate_direct.calls": calls("direct.estimate_direct"),
        "direct.estimate_direct.self_s": self_s("direct.estimate_direct"),
        "direct.informative_frac": ratio(
            attr_sum("direct.estimate_direct", "informative"),
            calls("direct.estimate_direct")),
        "local.estimate_T_entries.calls": calls("local.estimate_T_entries"),
        "local.estimate_T_entries.busy_s": busy("local.estimate_T_entries"),
        "local.estimate_T_entries.phi_mb": max(
            (s.get("phi_mb", 0.0) for s in by_name["local.estimate_T_entries"]),
            default=0.0),
        "local.solve.busy_s": busy("local.solve"),
        "local.solve.dropped_frac": ratio(attr_sum("local.solve", "dropped"),
                                          attr_sum("local.solve", "points")),
        "local.fit_parametric.busy_s": busy("local.fit_parametric"),
        "experiments.run_monte_carlo.self_s": self_s(
            "experiments.run_monte_carlo"),
        "experiments.pool_util": ratio(pool_cpu, pool_capacity),
        "experiments.run_local_pipeline.self_s": self_s(
            "experiments.run_local_pipeline"),
        "experiments.emit_results.busy_s": busy("experiments.emit_results"),
        "experiments.emit_results.bytes": attr_sum("experiments.emit_results",
                                                   "bytes"),
        "model.load_s": busy("model.load_network"),
    }
