"""Working memory of the record-length path: at 10^5 samples, simulate, the
T-entry regression and the direct solve hold no temporary the length of the
record, and a record holds w and only the excited rows of r; the threads
netid starts share one malloc heap; the scripts that measure memory and page
faults run."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netid import (DirectModelStructure, ExcitationSpec, estimate_direct,
                   estimate_T_entries, plan_experiment_for_model, simulate)

ROOT = Path(__file__).resolve().parent.parent
N = 100_000
LIMIT = 12 * 2**20  # bytes; a (N, 35) state array alone is 26.7 MiB


def traced_peak(fn):
    """(fn's result, tracemalloc peak in bytes above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


@pytest.fixture(scope="module")
def realized(case_study):
    case_study.realization  # built once per model; not what is measured
    return case_study


def test_simulate_holds_little_beside_its_record(realized):
    spec = ExcitationSpec(range(1, realized.L + 1), N=N, seed=1)
    rec, peak = traced_peak(lambda: simulate(realized, spec))
    held = rec.w.nbytes + rec.r.nbytes
    assert peak - held <= LIMIT


def test_t_entries_hold_little_beside_the_record(realized):
    plan = plan_experiment_for_model(realized, (3, 4))
    rec = simulate(realized, ExcitationSpec(plan.excite_set, N=N, seed=2))
    est, peak = traced_peak(lambda: estimate_T_entries(
        rec, plan.measure_set, plan.excite_set))
    assert np.all(np.array(est.fit_scores) > 0.99)
    assert peak <= LIMIT


def test_direct_holds_little_beside_the_record(realized):
    # the (N, 7) regressor alone is 5.3 MiB
    rec = simulate(realized, ExcitationSpec(range(1, realized.L + 1), N=N,
                                            seed=3))
    structure = DirectModelStructure.from_model(realized, 3)
    est, peak = traced_peak(lambda: estimate_direct(rec, structure))
    assert est.informative
    assert peak <= 2**20


def test_local_record_holds_w_and_the_excited_rows(realized):
    plan = plan_experiment_for_model(realized, (3, 4))
    assert len(plan.excite_set) == 4
    rec = simulate(realized, ExcitationSpec(plan.excite_set, N=N, seed=2))
    assert rec.w.nbytes + rec.r.nbytes <= (realized.L + 4) * N * 8


HEAPS_AFTER_THREADS = """
import ctypes, os, sys, tempfile
from netid import build_case_study, run_local_pipeline, run_monte_carlo
from netid.experiments import default_scenario_file, load_scenarios
libc = ctypes.CDLL(None)
if not hasattr(libc, "mallopt") or not hasattr(libc, "malloc_info"):
    sys.exit(3)
model = build_case_study()
scenario = next(s for s in load_scenarios(default_scenario_file())
                if s.method == "direct")
run_monte_carlo(scenario, model, runs=4, samples=2000)
run_local_pipeline(model, (3, 4), samples=2000)
libc.fopen.argtypes, libc.fopen.restype = [ctypes.c_char_p] * 2, ctypes.c_void_p
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "malloc_info.xml")
    fh = libc.fopen(path.encode(), b"w")
    libc.malloc_info(0, fh)
    libc.fclose(fh)
    with open(path) as xml:
        print(xml.read().count("<heap nr="))
"""


def test_netid_threads_share_one_heap():
    # a fresh interpreter, since pytest's own process already holds the
    # arenas of earlier pool tests; without the arena cap, the two pool
    # workers and the Gram helper would each take an arena of their own
    done = subprocess.run(
        [sys.executable, "-c", HEAPS_AFTER_THREADS], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "NETID_WORKERS": "2",
             "PYTHONPATH": os.pathsep.join(sys.path)})
    if done.returncode == 3:
        pytest.skip("libc has no mallopt or malloc_info")
    assert done.returncode == 0, done.stderr[-2000:]
    assert int(done.stdout) == 1


def test_memory_script_runs():
    # the script reads record attributes that no import check covers
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "memory.py"),
         "--samples", "2000", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    rows = json.loads(done.stdout)["rows"]
    assert [(r["layer"], r.get("target")) for r in rows] == [
        ("simulate", None), ("estimate_direct", None),
        ("estimate_T_entries", [3, 4]), ("estimate_T_entries", [9, 8])]
    assert rows[0]["record_mb"] == round(40 * 2000 * 8 / 2**20, 2)
    for row in rows:
        assert row["samples"] == 2000
        assert row["rss_mb"] > 0 and row["call_ms"] > 0
        assert row["rss_range_mb"] == [row["rss_mb"]] * 2  # one probe
        assert row["call_range_ms"] == [row["call_ms"]] * 2
        assert "best_ms" not in row
        assert row["peak_above_inputs_mb"] >= 0
        assert row["minor_faults"] >= 0


def test_faults_script_runs():
    # the script calls perfbench's workload units, which no other test does
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "faults.py"), "--units",
         "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout)
    assert out["units"] == 1
    for workload in ("direct_mc", "local_pipeline", "long_record"):
        assert len(out[workload]) == 1 and out[workload][0] >= 0
        assert len(out["peak_rss_mb"][workload]) == 1
        assert out["peak_rss_mb"][workload][0] > 0
