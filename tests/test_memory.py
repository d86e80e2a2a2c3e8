"""Working memory of the record-length path: at 10^5 samples, simulate and
the T-entry regression hold no temporary the length of the record."""

import tracemalloc

import numpy as np
import pytest

from netid import (ExcitationSpec, estimate_T_entries,
                   plan_experiment_for_model, simulate)

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
    held = rec.w.nbytes + rec.r.nbytes + rec.v.nbytes
    assert peak - held <= LIMIT


def test_t_entries_hold_little_beside_the_record(realized):
    plan = plan_experiment_for_model(realized, (3, 4))
    rec = simulate(realized, ExcitationSpec(plan.excite_set, N=N, seed=2))
    est, peak = traced_peak(lambda: estimate_T_entries(
        rec, plan.measure_set, plan.excite_set))
    assert np.all(np.array(est.fit_scores) > 0.99)
    assert peak <= LIMIT
