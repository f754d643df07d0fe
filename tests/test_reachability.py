"""Every public name of the library, and every member of a reached class,
has a caller outside the tests.

The roots are the handlers of the CLI commands, the selftest laws and
whatever the perfbench workloads import.  From them the audit follows the
references between the top-level definitions of `src/metaplectic`, read
with `ast`, and lists each `__all__` name it never reaches.  A member
(method, classmethod or property) counts as called when some reached
definition or some workload file reads an attribute of its name.
"""

import ast
from pathlib import Path

from metaplectic.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metaplectic"
WORKLOADS = ROOT / "perfbench" / "workloads"

UNREACHED = set()


def library_module(node):
    """The metaplectic module that an import statement reads from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("metaplectic."):
        return node.module.split(".", 1)[1]
    return None


def imports(tree):
    """local name -> (module, name) for each name imported from the library."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and library_module(node):
            for alias in node.names:
                out[alias.asname or alias.name] = (library_module(node), alias.name)
    return out


def bound_names(stmt):
    """The names that a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def reference_graph():
    """(edges, public): (module, name) -> the (module, name) its definition
    names, and the (module, name) of each __all__ entry."""
    edges, public = {}, set()
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        aliases = imports(tree)
        defined = {name for stmt in tree.body for name in bound_names(stmt)}
        for stmt in tree.body:
            names = bound_names(stmt)
            refs = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            targets = {aliases[r] for r in refs if r in aliases}
            targets |= {(module, r) for r in refs & defined}
            for name in names:
                edges.setdefault((module, name), set()).update(targets)
            if "__all__" in names:
                public |= {(module, e.value) for e in stmt.value.elts}
    return edges, public


def roots():
    handlers = {(h.__module__.rsplit(".", 1)[1], h.__name__) for _, _, h in COMMANDS.values()}
    used = set()
    for path in WORKLOADS.glob("*.py"):
        used |= set(imports(ast.parse(path.read_text())).values())
    return handlers | used | {("selftest", "CHECKS")}


def reached(edges):
    seen, todo = set(), list(roots())
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += edges.get(node, ())
    return seen


def attributes(tree):
    """The attribute names that a syntax tree reads."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def members(cls):
    """The non-dunder methods, classmethods and properties of a class."""
    names = []
    for stmt in cls.body:
        value = getattr(stmt, "value", None)
        if isinstance(stmt, ast.FunctionDef):
            names.append(stmt.name)
        elif isinstance(value, ast.Call) and getattr(value.func, "id", None) == "property":
            names += bound_names(stmt)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_public_name_has_a_caller_outside_the_tests():
    edges, public = reference_graph()
    assert public - reached(edges) == UNREACHED


def test_every_member_of_a_reached_class_is_read_outside_the_tests():
    """A member counts as read when its attribute name is read, whatever the
    class: the audit cannot see past a shared name.  A member named like a
    read member of another class (a `mul`, `inv` or `is_trivial`) passes
    although nothing calls it; only a run trace of the callers can find it."""
    seen = reached(reference_graph()[0])
    read, defined = set(), set()
    for path in WORKLOADS.glob("*.py"):
        read |= attributes(ast.parse(path.read_text()))
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if any((module, name) in seen for name in bound_names(stmt)):
                read |= attributes(stmt)
                if isinstance(stmt, ast.ClassDef):
                    defined |= {(module, stmt.name, m) for m in members(stmt)}
    assert {member for member in defined if member[2] not in read} == set()
