"""Working memory and time of the record-length layers, one layer at a time.

Usage, from the root of a checkout:

    python3 benchmarks/memory.py [--samples 10000 100000] [--repeat 3] \
        > memory.json

On long_record's targets (perfbench/workloads.py), for each record length:

simulate
    the case study with every node excited, as the direct half simulates it;
    the peak is the tracemalloc peak above the start less the returned
    record (w and the excited rows of r, record_mb), so it counts only what
    simulate holds beside its output.
estimate_direct
    node 3's direct regression on that record; peak above the record.
estimate_T_entries
    the T entries of the local plan for (3,4) (long_record's target) and
    (9,8), on a record of the plan's excitations at FIR order 150; peak
    above the record.

Peaks are in MB of 2^20 bytes, as perfbench's peak_rss_mb.  tracemalloc
does not see numpy.linalg's own work buffers, such as the Fortran-order
copy of the regressor that lstsq makes, so each row also reports rss_mb:
the peak resident set size (ru_maxrss) of a fresh interpreter that imports
netid, builds the case study's realization, makes the layer's inputs and
calls the layer twice; so it includes the import, and the estimators' rows
include the simulate call that makes their record.  rss_mb is the median
of --repeat such probes, and rss_range_mb their lowest and highest, since a
single probe can be off by a few MB.  Over the same probes, minor_faults
is the median of the minor page faults (ru_minflt) that the second call
took, the pages a repeated call faults in afresh, and call_ms the median
wall time of that second call, with call_range_ms its lowest and highest.
Each probe is a fresh process, so no call is timed after other layers
have run in the same heap.  BLAS is held to one thread, as in perfbench.
Standard output gets one JSON object with the machine facts
(perfbench/facts.py) and one row per layer and record length.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
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
LAYERS = (("simulate", None), ("estimate_direct", None),
          *(("estimate_T_entries", t) for t in T_TARGETS))


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


def layer_call(model, layer: str, N: int, target=None):
    """Make the layer's inputs and return the call that is measured."""
    if layer == "estimate_T_entries":
        plan = plan_experiment_for_model(model, tuple(target))
        rec = simulate(model, ExcitationSpec(plan.excite_set, N=N, seed=SEED))
        grid = netid.FreqGrid.uniform(GRID_POINTS)
        return lambda: estimate_T_entries(rec, plan.measure_set,
                                          plan.excite_set,
                                          fir_order=FIR_ORDER, grid=grid)
    spec = ExcitationSpec(range(1, model.L + 1), N=N, seed=SEED)
    if layer == "simulate":
        return lambda: simulate(model, spec)
    record = simulate(model, spec)
    structure = DirectModelStructure.from_model(model, DIRECT_NODE)
    return lambda: estimate_direct(record, structure)


def rss_probe(layer: str, N: int, target=None) -> dict:
    """rss_mb, the peak RSS in MB of a fresh interpreter that calls the
    layer twice, and minor_faults and call_ms, the minor faults and the
    wall time in ms of the second call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rss-probe",
           layer, "--samples", str(N)]
    if target is not None:
        cmd += ["--target", ",".join(map(str, target))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def layer_rows(model, N: int, rss: dict) -> list[dict]:
    rows = []
    for layer, target in LAYERS:
        call = layer_call(model, layer, N, target)
        peak, out = traced_peak_mb(call)
        row = {"layer": layer, "samples": N}
        if target is not None:
            row["target"] = list(target)
        if layer == "simulate":
            held = (out.w.nbytes + out.r.nbytes) / 2**20
            peak -= held
            row["record_mb"] = round(held, 2)
        del out
        row["peak_above_inputs_mb"] = round(peak, 2)
        probes = rss[layer, N, target]
        for key, span in (("rss_mb", "rss_range_mb"),
                          ("call_ms", "call_range_ms")):
            values = [p[key] for p in probes]
            row[key] = round(statistics.median(values), 2)
            row[span] = [round(min(values), 2), round(max(values), 2)]
        row["minor_faults"] = statistics.median(
            p["minor_faults"] for p in probes)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, nargs="+",
                   default=[10_000, 100_000])
    p.add_argument("--repeat", type=int, default=3,
                   help="fresh-process probes per layer and record length")
    p.add_argument("--rss-probe", help=argparse.SUPPRESS)
    p.add_argument("--target", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    model = netid.build_case_study()
    if args.rss_probe:
        target = args.target and tuple(map(int, args.target.split(",")))
        call = layer_call(model, args.rss_probe, args.samples[0], target)
        call()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        call()
        call_ms = (time.perf_counter() - t0) * 1e3
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps({"rss_mb": usage.ru_maxrss / 1024.0,
                          "minor_faults": usage.ru_minflt - before,
                          "call_ms": call_ms}))
        return 0
    # Linux carries a parent's peak RSS into its child's ru_maxrss, across
    # fork and exec, so the probes run while this process holds only its
    # imports, less than any probe holds.
    rss = {(layer, N, target): [rss_probe(layer, N, target)
                                for _ in range(args.repeat)]
           for N in args.samples for layer, target in LAYERS}
    for layer, target in LAYERS:  # lazy set-up, such as the realization
        layer_call(model, layer, 2_000, target)()
    rows = []
    for N in args.samples:
        rows += layer_rows(model, N, rss)
        for row in rows[-4:]:
            print(json.dumps(row), file=sys.stderr, flush=True)
    print(json.dumps({"machine": machine_facts(ROOT, 1, 1), "repeat":
                      args.repeat, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
