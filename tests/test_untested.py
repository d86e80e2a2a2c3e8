"""tools/untested.py's statement listing, on a short source text."""

import importlib.util
import sys
from pathlib import Path

import pytest

UNTESTED = Path(__file__).resolve().parents[1] / "tools" / "untested.py"

SOURCE = '''\
"""Module docstring."""
import os
from sys import argv
X = 1


def f(a):
    """Function docstring."""
    global X
    if a:
        return (a +
                1)
    try:
        pass
    except ValueError:
        raise
    return 0


class C:
    y: int = 2
'''


@pytest.fixture(scope="module")
def untested():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read-only load
    try:
        spec = importlib.util.spec_from_file_location("_untested", UNTESTED)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_lists_statements_but_not_docstrings_defs_imports_or_global(
        untested):
    found = untested.statements(SOURCE)
    assert sorted(found) == [4, 10, 11, 13, 14, 16, 17, 21]
    assert found[10] == range(10, 11)   # a compound statement's header
    assert found[11] == range(11, 13)   # a simple statement's every line
    assert found[13] == range(13, 14)


def test_a_statement_ran_if_any_of_its_lines_ran(untested):
    # line 12 is the return's second line; lines 16 (raise) and 14 (pass)
    # never ran
    assert untested.untested(SOURCE, {4, 10, 12, 13, 17, 21}) == [14, 16]
    assert untested.untested(SOURCE, set()) == [4, 10, 11, 13, 14, 16, 17,
                                                21]
