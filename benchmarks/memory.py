"""Working memory and time of the record-length layers, one layer at a time.

Usage, from the root of a checkout:

    python3 benchmarks/memory.py [--samples 10000 100000] [--repeat 7] \
        > memory.json

On long_record's targets (perfbench/workloads.py), for each record length:

simulate
    the case study with every node excited, as the direct half simulates it;
    the peak is the tracemalloc peak above the start less the returned
    record (w, r and v), so it counts only what simulate holds beside its
    output.
estimate_direct
    node 3's direct regression on that record; peak above the record.
estimate_T_entries
    the T entries of the local plan for (3,4) (long_record's target) and
    (9,8), on a record of the plan's excitations at FIR order 150; peak
    above the record.

Peaks are in MB of 2^20 bytes, as perfbench's peak_rss_mb.  Each layer also
reports its best wall time over --repeat untraced calls.  BLAS is held to
one thread, as in perfbench.  Standard output gets one JSON
object with the machine facts (perfbench/facts.py) and one row per layer and
record length.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from facts import BLAS_THREAD_VARS, machine_facts  # noqa: E402

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import netid  # noqa: E402
from netid import (DirectModelStructure, ExcitationSpec,  # noqa: E402
                   estimate_direct, estimate_T_entries,
                   plan_experiment_for_model, simulate)

FIR_ORDER = 150
GRID_POINTS = 100
T_TARGETS = ((3, 4), (9, 8))
DIRECT_NODE = 3
SEED = 3


def traced_peak_mb(fn) -> tuple[float, object]:
    """(tracemalloc peak above the start in MB, fn's result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20, out


def best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def layer_rows(model, N: int, repeat: int) -> list[dict]:
    rows = []
    spec = ExcitationSpec(range(1, model.L + 1), N=N, seed=SEED)
    peak, record = traced_peak_mb(lambda: simulate(model, spec))
    held = (record.w.nbytes + record.r.nbytes + record.v.nbytes) / 2**20
    rows.append({"layer": "simulate", "samples": N,
                 "peak_above_inputs_mb": round(peak - held, 2),
                 "record_mb": round(held, 2),
                 "best_ms": round(best_ms(lambda: simulate(model, spec),
                                          repeat), 2)})
    structure = DirectModelStructure.from_model(model, DIRECT_NODE)
    peak, _ = traced_peak_mb(lambda: estimate_direct(record, structure))
    rows.append({"layer": "estimate_direct", "samples": N,
                 "peak_above_inputs_mb": round(peak, 2),
                 "best_ms": round(best_ms(
                     lambda: estimate_direct(record, structure), repeat), 2)})
    del record
    grid = netid.FreqGrid.uniform(GRID_POINTS)
    for target in T_TARGETS:
        plan = plan_experiment_for_model(model, target)
        rec = simulate(model, ExcitationSpec(plan.excite_set, N=N, seed=SEED))

        def call():
            return estimate_T_entries(rec, plan.measure_set, plan.excite_set,
                                      fir_order=FIR_ORDER, grid=grid)

        peak, _ = traced_peak_mb(call)
        rows.append({"layer": "estimate_T_entries", "target": list(target),
                     "samples": N, "peak_above_inputs_mb": round(peak, 2),
                     "best_ms": round(best_ms(call, repeat), 2)})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, nargs="+",
                   default=[10_000, 100_000])
    p.add_argument("--repeat", type=int, default=7)
    args = p.parse_args(argv)
    model = netid.build_case_study()
    layer_rows(model, 2_000, 1)  # lazy set-up, such as the realization
    rows = []
    for N in args.samples:
        rows += layer_rows(model, N, args.repeat)
        for row in rows[-4:]:
            print(json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps({"machine": machine_facts(ROOT, 1, 1), "repeat":
                      args.repeat, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
