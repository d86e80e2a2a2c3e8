"""The public names that the documentation and the committed scripts use
exist in netid, every name in netid.__all__ is one of them, and README's
Layout names every module of the package.

README's Python examples, the scripts under benchmarks/ and tools/, and
some steps of perfbench's workloads are not run by the rest of the suite,
so an API change that breaks them would otherwise go unnoticed until
someone runs them by hand.
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
    or reads as an attribute of a netid module it imports, such as
    netid.<name> or, after `from netid import experiments`,
    experiments.<name>."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name == "netid")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "netid":
            for a in node.names:
                full = f"{node.module}.{a.name}"
                try:
                    importlib.import_module(full)
                    modules[a.asname or a.name] = full
                except ModuleNotFoundError:  # a name, not a module
                    used.add((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
    return used


def _missing(scripts) -> list[tuple[str, str, str]]:
    return [(script.relative_to(ROOT).as_posix(), module, name)
            for script in scripts
            for module, name in sorted(_netid_names(script))
            if not hasattr(importlib.import_module(module), name)]


def test_committed_scripts_use_existing_names():
    scripts = sorted((ROOT / "benchmarks").glob("*.py")) + \
        sorted((ROOT / "tools").glob("*.py"))
    assert _netid_names(ROOT / "benchmarks" / "memory.py")  # finds imports
    assert _missing(scripts) == []


def test_perfbench_reads_existing_names():
    # a name the benchmark reads only in a step no test reaches, such as
    # experiments.ResultTable in DirectMC.conclude, fails here
    scripts = sorted((ROOT / "perfbench").glob("*.py"))
    names = set().union(*map(_netid_names, scripts))
    assert {("netid.experiments", "ResultTable"),
            ("netid.model", "ExcitationSpec"),
            ("netid.sim", "simulate")} <= names
    assert _missing(scripts) == []


def test_every_public_name_is_used():
    # a name that README does not name and no committed script reads has
    # no user outside netid; it stays importable from its own module
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    scripts = [path for folder in ("tests", "benchmarks", "tools", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    read = {name for _, name in set().union(*map(_netid_names, scripts))}
    unused = [name for name in netid.__all__ if name not in read
              and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_readme_layout_names_every_module():
    # a module added, folded away or renamed without its Layout bullet, or
    # a bullet left for a module that is gone, fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `src/netid/(\w+\.py)`", layout, re.M)
    modules = [path.name for path in (ROOT / "src" / "netid").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
