"""List the statements in src/netid that no test executes.

Run from anywhere, with any pytest arguments (none runs the whole suite):

    python3 tools/untested.py [pytest args]

pytest runs in this process under a line tracer (sys.settrace, and
threading.settrace for the threads the tests start) that records lines only
in frames whose code lives in src/netid.  Afterwards every statement with no
executed line is printed as `src/netid/<file>:<line>: <source>`.  Docstrings,
def and class lines, imports and global statements are not listed.  Code
that a test runs in a subprocess, such as a CLI invoked through
`python -m netid`, is not seen, so its statements read as untested.

The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "netid"

#: Statement kinds never listed: their lines run at import, or only declare.
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(source: str) -> dict[int, range]:
    """{first line: the lines that run it} for each listed statement of
    `source`: a compound statement's header lines, a simple statement's
    every line."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[node.lineno] = range(node.lineno, last + 1)
    return out


def untested(source: str, executed: set[int]) -> list[int]:
    """First lines of the listed statements none of whose lines ran."""
    return sorted(first for first, lines in statements(source).items()
                  if executed.isdisjoint(lines))


def main(argv: list[str]) -> int:
    prefix = str(SRC) + "/"
    executed: dict[str, set[int]] = {}

    def lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return lines

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for first in untested(source, executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{first}: "
                  f"{text[first - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
