"""Only two handlers in the runtime catch every exception.

`ContainerInstance.process_step` contains a component's fault, and
`kernel.apply_now` rolls a command back whatever went wrong.  Anywhere
else a broad catch would turn a bug into a diagnostic, or into nothing: a
descriptor fault is reported by a check that says what the value must be,
not by the text of whatever exception it raised.
"""

import ast
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "adaptsim")
ALLOWED = {("container.py", "ContainerInstance.process_step"),
           ("kernel.py", "apply_now")}
BROAD = {"Exception", "BaseException"}


def _broad(handler):
    if handler.type is None:                   # a bare except
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(getattr(t, "id", getattr(t, "attr", None)) in BROAD
               for t in types)


def broad_catches(source):
    """(line, qualified name of the enclosing function) of each handler
    that catches Exception, BaseException or everything."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.ExceptHandler) and _broad(child):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_guard_sees_every_kind_of_broad_catch():
    source = "\n".join([
        "def f():",
        "    try: g()",
        "    except Exception: pass",               # 3
        "    try: g()",
        "    except: pass",                         # 5
        "    try: g()",
        "    except (KeyError, BaseException): pass",   # 7
        "    try: g()",
        "    except builtins.Exception as e: pass",     # 9
        "    try: g()",
        "    except (KeyError, ValueError): pass",  # narrow
        "class C:",
        "    def m(self):",
        "        try: g()",
        "        except Exception: pass",           # 15
    ])
    assert broad_catches(source) == [(3, "f"), (5, "f"), (7, "f"), (9, "f"),
                                     (15, "C.m")]


def test_only_fault_containment_and_rollback_catch_everything():
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert "descriptors.py" in files
    found = set()
    for name in files:
        with open(os.path.join(PKG, name)) as fh:
            found |= {(name, scope) for _, scope in broad_catches(fh.read())}
    assert found == ALLOWED
