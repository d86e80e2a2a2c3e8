"""The benchmark tracer's wrap targets exist in netid and are on the path
that netid's runs take.

perfbench/tracing.py skips a (module, attribute) pair it cannot find, and
the layer that pair feeds then reports zero calls without an error; a run
that calls a function under another name than the wrapped one reports zero
calls too.  These tests turn either into a failure.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from netid import Scenario, run_local_pipeline, run_monte_carlo

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only load
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves(tracing):
    missing = [(module, attr) for module, attr, *_ in tracing.WRAPS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.WRAPS
    assert missing == []


def test_runs_call_every_traced_layer(tracing, case_study):
    scn = Scenario(id="t", excited_nodes=tuple(range(1, 21)),
                   method="direct", target=(3, 4), runs=2,
                   samples_per_run=2000, base_seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run_monte_carlo(scn, case_study).failed_runs == 0
        run_local_pipeline(case_study, (3, 4), samples=2000, seed=3,
                           fir_order=60)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer.spans, workers=1)
    assert metrics["sim.simulate.calls"] == 3
    assert metrics["direct.estimate_direct.calls"] == 2
    assert metrics["local.estimate_T_entries.calls"] == 1
    # the solve and fit layers report time only, which a call makes positive
    assert metrics["local.solve.busy_s"] > 0
    assert metrics["local.fit_parametric.busy_s"] > 0
