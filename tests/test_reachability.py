"""Every public name of the library has a caller outside the tests.

The roots are the handlers of the CLI commands, the selftest laws and
whatever the perfbench workloads import.  From them the audit follows the
references between the top-level definitions of `src/metaplectic`, read
with `ast`, and lists each `__all__` name it never reaches.
"""

import ast
from pathlib import Path

from metaplectic.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metaplectic"
WORKLOADS = ROOT / "perfbench" / "workloads"

# hecke_cokernel is the paper's cokernel of T - lambda, which builds the
# supersingulars and the principal series; no command prints it yet
UNREACHED = {("meta", "hecke_cokernel"), ("meta", "HeckeExtension")}


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


def test_every_public_name_has_a_caller_outside_the_tests():
    edges, public = reference_graph()
    seen, todo = set(), list(roots())
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += edges.get(node, ())
    assert public - seen == UNREACHED
