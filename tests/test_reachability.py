"""Every public name of the library, and every member of a reached class,
has a caller outside the tests.

The roots are the handlers of the CLI commands, the selftest laws and
whatever the perfbench workloads import.  From them the audit follows the
references between the top-level definitions of `src/metaplectic`, read
with `ast`, and lists each `__all__` name it never reaches.  A member
(method, classmethod or property) counts as called when some reached
definition or some workload file reads an attribute of its name.  A run
trace of the golden commands and the workloads then checks every function
by its place in the source, so a shared member name hides nothing.
"""

import ast
import importlib
import os
import random
import shlex
import sys
from pathlib import Path

from metaplectic import coeff
from metaplectic.cli import COMMANDS, main

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
    although nothing calls it; the run trace below finds it."""
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


# the functions that run only while the library is imported, before a trace
# can start: the CLI command table's decorator factory and its decorator
IMPORT_TIME = {"cli._opt", "cli._command", "cli._command.register"}


def functions(tree, prefix):
    """qualified name -> first line of the code object (the first decorator's
    line, if any) of each function in the tree, nested ones included."""
    out = {}
    for node in ast.iter_child_nodes(tree):
        name = f"{prefix}.{node.name}" if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else prefix
        if isinstance(node, ast.FunctionDef):
            out[name] = min([node.lineno] + [d.lineno for d in node.decorator_list])
        out.update(functions(node, name))
    return out


def test_every_function_runs_in_the_golden_commands_and_one_workload_cycle(monkeypatch, capsys):
    """Under sys.setprofile, the golden CLI commands (selftest included) and
    one seeded schedule cycle of each perfbench workload run in this process;
    every non-dunder function under src/metaplectic must start at least once.
    The library's caches start empty, so earlier tests answer no call."""
    from test_golden import COMMANDS as GOLDEN_COMMANDS, GOLDEN

    monkeypatch.setattr(coeff, "_FIELD_CACHE", {})
    for name, module in list(sys.modules.items()):
        if name.startswith("metaplectic."):
            for cached in (value for value in vars(module).values() if hasattr(value, "cache_clear")):
                cached.cache_clear()
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    from tracing import NULL

    modules = (importlib.import_module(f"workloads.{path.stem}") for path in sorted(WORKLOADS.glob("[!_]*.py")))
    workloads = [module for module in modules if hasattr(module, "jobs")]
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for command in GOLDEN_COMMANDS.values():
            assert main([arg.format(inputs=GOLDEN / "inputs") for arg in shlex.split(command)]) == 0
        for workload in workloads:
            for job in workload.jobs(random.Random(1)):
                job.run(NULL)
                if job.ends_cycle:
                    break
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    started = {(os.path.realpath(path), line) for path, line in started}
    never = set()
    for path in sorted(SRC.glob("*.py")):
        for name, line in functions(ast.parse(path.read_text()), path.stem).items():
            short = name.rsplit(".", 1)[1]
            if not (short.startswith("__") and short.endswith("__")) and (os.path.realpath(path), line) not in started:
                never.add(name)
    assert never == IMPORT_TIME
