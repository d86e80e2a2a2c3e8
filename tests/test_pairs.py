"""benchmarks/pairs.py's verdicts on one metric's pairs, on fixed values."""

import importlib.util
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read-only load
    try:
        spec = importlib.util.spec_from_file_location("_pairs", PAIRS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_clear_gain(pairs):
    out = pairs.compare(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)
    assert out["wins"] == 10 and out["gain"]
    assert not out["worse"] and not out["unresolved"]


def test_worse_beyond_the_bound(pairs):
    # a lower-is-better metric whose median rose 30 % against a 25 % bound
    out = pairs.compare(PARENT, [1.3 * p for p in PARENT], "lower", 0.25)
    assert out["worse"] and not out["gain"] and out["wins"] == 0
    out = pairs.compare(PARENT, [1.2 * p for p in PARENT], "lower", 0.25)
    assert not out["worse"]


def test_spread_wider_than_the_bound_is_unresolved(pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    out = pairs.compare(parent, list(parent), "higher", 0.25)
    assert out["parent"]["q3"] - out["parent"]["q1"] > 0.25 * 3.0
    assert out["unresolved"] and not out["worse"] and not out["gain"]
    # unless every change run beats every parent run
    out = pairs.compare(parent, [6.0] * 10, "higher", 0.25)
    assert not out["unresolved"] and out["gain"]
    out = pairs.compare(parent, [0.5] * 10, "lower", 0.25)
    assert not out["unresolved"]


def test_narrow_spread_is_resolved(pairs):
    out = pairs.compare(PARENT, list(PARENT), "lower", 0.25)
    assert not out["unresolved"] and not out["worse"] and not out["gain"]
    assert out["wins"] == 0 and out["bound"] == 0.25


def test_src_netid_lines_counts_the_package_modules(pairs, tmp_path):
    package = tmp_path / "src" / "netid"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\nno_final_newline = 4")
    (package / "data" / "c.py").write_text("skipped\n")  # not a module
    (package / "notes.txt").write_text("skipped\n")
    assert pairs.src_netid_lines(tmp_path) == 3
