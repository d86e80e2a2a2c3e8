"""The benchmark tracer's wrap targets exist in netid.

perfbench/tracing.py skips a (module, attribute) pair it cannot find, and
the layer that pair feeds then reports zero calls without an error; this
test turns a renamed or deleted target into a failure.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrap_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only load
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.WRAPS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.WRAPS
    assert missing == []
