"""The benchmark in perfbench/ imports and wraps program names; they must resolve.

The perfbench sources are read with ast, never imported or run, so this
test only checks names: every kloosterman module attribute the scripts
import (or reach as module.attr on an imported module) and every
(module, attribute) pair in spans.TRACED.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _resolves(module_name: str, attr: str) -> bool:
    return (hasattr(importlib.import_module(module_name), attr)
            or _is_module(f"{module_name}.{attr}"))


def _imported_names(tree: ast.AST):
    """(module, attr) for each kloosterman import, plus module.attr uses."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kloosterman":
            for alias in node.names:
                yield node.module, alias.name
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


def _traced_pairs():
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("spans.TRACED not found")


def test_benchmark_imports_resolve():
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources
    checked = set()
    for path in sources:
        for module_name, attr in _imported_names(ast.parse(path.read_text())):
            checked.add((module_name, attr))
            assert _resolves(module_name, attr), f"{path.name}: {module_name}.{attr}"
    # The scripts reach the scan and the oracles through these names.
    assert ("kloosterman.sl4fine", "fine_cell_distribution") in checked
    assert ("kloosterman.bruhat", "corner_minors") in checked


def test_label_methods_resolve():
    """spans.py and pin.py call enumeration_budget() on both cell label classes."""
    for name in ("spans.py", "pin.py"):
        assert ".enumeration_budget()" in (PERFBENCH / name).read_text(), name
    from kloosterman.sl4fine import FineCellLabel
    from kloosterman.sl5 import SL5FineCellLabel
    assert FineCellLabel(1, 1, 1, 1, 1, 2).enumeration_budget() == 64
    assert SL5FineCellLabel(1, 1, 1, 1, 1, 1, 1, 1, 1, 2).enumeration_budget() == 1024


def test_traced_functions_resolve():
    pairs = _traced_pairs()
    assert len(pairs) >= 10
    for module_name, attr in pairs:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            f"{module_name}.{attr}"
