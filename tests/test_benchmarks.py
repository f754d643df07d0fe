"""Smoke run of the layer benchmark at tiny sizes; the timings are not checked."""

import hashlib
import json
import subprocess
import symtable
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "benchmarks" / "layers.py"


def layers(*args):
    return subprocess.run(
        [sys.executable, str(LAYERS), *args], capture_output=True, text=True, check=True, timeout=60
    )


def test_layer_benchmark_writes_and_compares(tmp_path):
    out = tmp_path / "BENCH_0.json"
    layers("--scale", "0.005", "--out", str(out))
    bench = json.loads(out.read_text())
    assert {"commit", "src_sha256", "python", "machine", "layers"} <= set(bench)
    # the harness imports every library module but the CLI and the selftest
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "metaplectic").glob("*.py")):
        if path.name not in ("cli.py", "selftest.py"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert bench["src_sha256"] == digest.hexdigest()
    assert len(bench["layers"]) == 62
    assert all(row["ms"] > 0 and row["ref_ms"] > 0 for row in bench["layers"].values())
    lines = layers("--compare", str(out), str(out)).stdout.splitlines()
    assert len(lines) == 63 and all(line.endswith(" 1.00") for line in lines[1:])


def test_layer_benchmark_only_times_the_rows_it_matches(tmp_path):
    out = tmp_path / "BENCH_0.json"
    layers("--only", r"laurent\.gamma_act", "--scale", "0.005", "--out", str(out))
    names = list(json.loads(out.read_text())["layers"])
    assert len(names) == 10 and all(name.startswith("laurent.gamma_act p=") for name in names)


def test_layer_rows_read_no_variable_of_rows():
    # statically, so that the rows built only at --scale 1 are checked too;
    # comprehensions run at once, every other scope in rows() is a row callable
    table = symtable.symtable(LAYERS.read_text(), str(LAYERS), "exec")
    (rows,) = [t for t in table.get_children() if t.get_name() == "rows"]
    comprehensions = {"listcomp", "setcomp", "dictcomp", "genexpr"}
    free = {
        (t.get_lineno(), name)
        for t in rows.get_children()
        if t.get_name() not in comprehensions
        for name in t.get_frees()
    }
    assert free == set()
