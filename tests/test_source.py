import ast
import importlib
from collections import Counter
from pathlib import Path

import hitchsov

SRC = Path(hitchsov.__file__).parent


def test_no_global_statements():
    """No module rebinds its own globals at run time."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def _referenced(node):
    """Names read anywhere under node, as bare names or as attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_no_dead_private_functions():
    """Every private module-level function and private method is referenced
    in the package somewhere outside its own def."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_referenced(tree) for tree in trees), Counter())
    defs = [node for tree in trees for top in tree.body
            for node in ([top] if not isinstance(top, ast.ClassDef)
                         else top.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    dead = [d.name for d in defs
            if used[d.name] == _referenced(d)[d.name]]
    assert defs
    assert dead == []


def test_traced_functions_exist():
    """Every function the benchmark's tracer wraps (TARGETS in
    bench/spans.py, read without importing it) exists in its module."""
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(spans.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    missing = [f"{module}.{name}" for module, names in targets.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"hitchsov.{module}"), name, None))]
    assert targets and missing == []
