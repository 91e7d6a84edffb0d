"""The runtime imports nothing outside the standard library, and no name
it never uses."""

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


def unused_imports(path):
    """(line, name) of each name a file imports and never references."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in bound if name not in used]


def test_runtime_imports_only_names_it_uses():
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    unused = [f"{name}:{line} imports {imported} and never uses it"
              for name in files
              for line, imported in unused_imports(os.path.join(PKG, name))]
    assert unused == []
