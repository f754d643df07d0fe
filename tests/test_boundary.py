"""The CLI is the library's only boundary to the JSON wire format.

Read with `ast`: no module of `src/metaplectic` but `cli` imports `json` or
defines a name ending in `_json`, and no class anywhere defines `to_json`, so
the math modules take and return values.

Importing the CLI in a fresh interpreter loads neither `dataclasses` nor
`inspect` (which brings `ast`, `dis` and `tokenize`): every process that
starts the library pays for what it imports.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "metaplectic"


def json_names(tree):
    """The json modules a module imports and the names ending in `_json`
    that it defines (functions, classes and assigned names)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.module] if node.module.split(".")[0] == "json" else []
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += [node.name] if node.name.endswith("_json") else []
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found += [node.id] if node.id.endswith("_json") else []
    return found


def to_json_methods(tree):
    return [
        f"{cls.name}.to_json"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "to_json"
    ]


def test_only_the_cli_reads_or_writes_json():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    outside = {name: json_names(tree) for name, tree in trees.items() if name != "cli"}
    assert {name: found for name, found in outside.items() if found} == {}
    # the check sees the readers and writers where they are
    assert {"json", "series_from_json", "module_to_json"} <= set(json_names(trees["cli"]))
    assert [method for tree in trees.values() for method in to_json_methods(tree)] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import metaplectic.cli, metaplectic.meta; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout.strip() == "[]"
