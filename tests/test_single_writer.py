"""Only container.py writes a container's bindings and variant.

A container's firing plan is built from its bindings and its variant, and
the `ContainerInstance` methods that write them drop it.  A write anywhere
else would leave the plan stale, so no other runtime module assigns,
deletes or pops an item of `input_bindings` or `output_bindings`, rebinds
either dict, or assigns `active_variant`.
"""

import ast
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "adaptsim")
BINDINGS = {"input_bindings", "output_bindings"}
GUARDED = BINDINGS | {"active_variant"}
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault",
            "__setitem__", "__delitem__"}


def _written(target):
    """The guarded name a store into `target` writes, or None."""
    if isinstance(target, ast.Attribute) and target.attr in GUARDED:
        return target.attr
    if isinstance(target, ast.Subscript) \
            and isinstance(target.value, ast.Attribute) \
            and target.value.attr in BINDINGS:
        return target.value.attr
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            name = _written(elt)
            if name:
                return name
    return None


def writes(source):
    """(line, name) of each write of a binding or the variant."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS \
                and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr in BINDINGS:
            out.append((node.lineno, node.func.value.attr))
            continue
        else:
            continue
        for target in targets:
            name = _written(target)
            if name:
                out.append((node.lineno, name))
    return out


def test_the_guard_sees_every_kind_of_write():
    source = "\n".join([
        "c.input_bindings['i'] = k",
        "c.output_bindings.pop('o', None)",
        "del c.input_bindings['i']",
        "c.output_bindings = {}",
        "c.active_variant = v",
        "c.output_bindings.update(o=k)",
        "c.input_bindings, x = {}, 1",
        "k = c.input_bindings.get('i')",          # a read
        "c.state = None",                          # not guarded
    ])
    assert sorted(line for line, _ in writes(source)) == [1, 2, 3, 4, 5, 6, 7]


def test_only_the_container_writes_bindings_and_the_variant():
    files = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))
    assert "container.py" in files and "kernel.py" in files
    found = []
    for name in files:
        if name == "container.py":
            continue
        with open(os.path.join(PKG, name)) as fh:
            found += [f"{name}:{line} writes {attr}"
                      for line, attr in writes(fh.read())]
    assert found == []
