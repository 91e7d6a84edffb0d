"""The runtime imports nothing outside the standard library."""

import ast
import os
import sys

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "adaptsim")


def imported_roots(path):
    """(line, top-level module) of each absolute import in one file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert "simnet.py" in files
    outside = [f"{name}:{line} imports {root}"
               for name in files
               for line, root in imported_roots(os.path.join(PKG, name))
               if root != "adaptsim" and root not in sys.stdlib_module_names]
    assert outside == []
