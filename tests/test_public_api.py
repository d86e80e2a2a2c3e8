"""The public names that the documentation and the committed scripts use
exist in netid.

README's Python examples and the scripts under benchmarks/ and tools/ are
not run by the rest of the suite, so an API change that breaks them would
otherwise go unnoticed until someone runs them by hand.
"""

import ast
import importlib
import re
from pathlib import Path

import netid

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in netid.__all__ if not hasattr(netid, name)]
    assert missing == []


def test_readme_python_examples_run(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"),
             namespace)
    assert capsys.readouterr().out


def _netid_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every name the script imports from a netid module
    or reads as netid.<name>."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "netid":
            used.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "netid":
            used.add(("netid", node.attr))
    return used


def test_committed_scripts_use_existing_names():
    scripts = sorted((ROOT / "benchmarks").glob("*.py")) + \
        sorted((ROOT / "tools").glob("*.py"))
    used = {script.relative_to(ROOT).as_posix(): _netid_names(script)
            for script in scripts}
    assert used["benchmarks/memory.py"]  # the scan finds its imports
    missing = [(script, module, name)
               for script, names in used.items()
               for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
