import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_no_cached_properties():
    """No object gains state after construction: the package caches no
    property on first use (``functools.cached_property``)."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if "cached_property" in (getattr(node, "id", None),
                                      getattr(node, "attr", None),
                                      getattr(node, "name", None))]
    assert found == []


def _referenced(node, modules=None):
    """Names read anywhere under node: bare names in load context (not a
    dataclass field), and attributes, every one or (given modules) only
    those read off a name in modules."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute)
                   and (modules is None
                        or getattr(n.value, "id", None) in modules))


def _trees():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def _module_names(trees):
    """Names the package binds to its own modules (``from . import sl2``,
    ``from . import parabolic as pb``)."""
    return {alias.asname or alias.name
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None for alias in node.names
            if importlib.util.find_spec(f"hitchsov.{alias.name}")}


def _unreferenced(trees, defs, modules=None):
    used = sum((_referenced(tree, modules) for tree in trees), Counter())
    return [d.name for d in defs
            if used[d.name] == _referenced(d, modules)[d.name]]


def test_no_dead_private_functions():
    """Every private module-level function and private method is referenced
    in the package somewhere outside its own def."""
    trees = _trees()
    defs = [node for tree in trees for top in tree.body
            for node in ([top] if not isinstance(top, ast.ClassDef)
                         else top.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    assert defs
    assert _unreferenced(trees, defs) == []


# Parameters of private functions that their bodies do not read, each with
# the reason it stays.
UNREAD_PARAMETERS = {}


def test_no_unused_parameters():
    """Every parameter of a private function or method is read in its body,
    or is in UNREAD_PARAMETERS; and every entry there is still unread."""
    unread = []
    for node in (node for tree in _trees() for node in ast.walk(tree)):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            continue
        args = node.args
        reads = {n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}.{arg.arg}"
                   for arg in (*args.posonlyargs, *args.args,
                               *args.kwonlyargs, args.vararg, args.kwarg)
                   if arg is not None and arg.arg not in reads]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS)


# Public functions that nothing in the package calls, each with the reason
# it stays.
UNCALLED_PUBLIC = {
    "riemann_theta": "acceptance criterion 8 (quasi-periodicity)",
    "jacobi_inversion_check": "acceptance criterion 8 (Jacobi inversion)",
    "riemann_constants": "bench/workloads.py `Inversion.setup` calls it",
    "hamiltonian_drift": "acceptance criterion 4 (two-route flow)",
    "discriminant_zero_count": "acceptance criterion 7 (branch count)",
    "skew_defect": "acceptance criterion 9 (SL2 skew x)",
    "so6_relations": "acceptance criterion 9 (SL2 so(6) brackets)",
    "plucker": "paper check: the line coordinates KLEIN folds in",
    "plucker_relation": "paper check: the Klein quadric of those lines",
    "gp_hamiltonians": "in bench/spans.py TARGETS",
    "integrate_monomials": "in bench/spans.py TARGETS until the benchmark "
                           "drops it",
    "route_path": "in bench/spans.py TARGETS; the oracles of "
                  "tests/continuation_oracle.py and tests/contour_oracle.py "
                  "route along it",
    "jacobi_matrix": "bench/workloads.py and the tests draw flow directions "
                     "c = J w with it; the fiber route solves through "
                     "_jacobi_solve",
}


def test_no_dead_public_functions():
    """Every public module-level function is referenced in the package
    outside its own def, registers itself by a decorator (the CLI
    commands), or is in UNCALLED_PUBLIC; and every name there is still a
    public function that nothing calls.  An attribute counts only when read
    off a package module (sl2.lax_flow), so a data attribute of the same
    name (ThetaData.riemann_constants) hides no function."""
    trees = _trees()
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and not node.decorator_list]
    uncalled = _unreferenced(trees, defs, _module_names(trees))
    assert defs
    assert sorted(set(uncalled) - set(UNCALLED_PUBLIC)) == []
    assert sorted(set(UNCALLED_PUBLIC) - set(uncalled)) == []


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


def test_no_dead_private_constants():
    """Every private module-level constant is read in the package."""
    trees = _trees()
    names = [target.id for tree in trees for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for top in (node.targets if isinstance(node, ast.Assign)
                         else [node.target])
             for target in ast.walk(top)
             if isinstance(target, ast.Name) and target.id.startswith("_")
             and not target.id.startswith("__")]
    used = sum((_referenced(tree) for tree in trees), Counter())
    assert names
    assert [name for name in names if not used[name]] == []


# The only modules from outside the standard library that the package
# imports, with their submodules.
THIRD_PARTY = ("numpy", "click")


def test_third_party_imports():
    """Every absolute import in the package is of the standard library or
    of THIRD_PARTY (numpy.polynomial counts as numpy)."""
    modules = {name for tree in _trees() for node in ast.walk(tree)
               for name in ([a.name for a in node.names]
                            if isinstance(node, ast.Import)
                            else [node.module]
                            if isinstance(node, ast.ImportFrom)
                            and node.level == 0 else [])}
    assert modules
    assert sorted(m for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names
                  and not any(m == t or m.startswith(t + ".")
                              for t in THIRD_PARTY)) == []


def test_cli_import_loads_no_sympy_or_scipy():
    """A fresh ``import hitchsov.cli`` leaves sympy and every scipy module
    out of sys.modules: the CLI's start-up pays for neither."""
    code = ("import sys, hitchsov.cli; print([m for m in sys.modules "
            "if m.split('.')[0] in ('sympy', 'scipy')])")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
