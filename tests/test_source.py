import ast
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
