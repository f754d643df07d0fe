"""Check that the exact per-layer counts repeat between two runs with one seed.

    python3 perfbench/check_counts.py --seed 7

Runs `run.py --trace 1` twice per workload, each in a fresh process, and
compares every exact metric: the `*.calls` counts, `laurent.mul.terms`, the
`*.prec_kept` ratios, `meta.invert_attempts` and `cli.bytes_out`.  Exits 1
and prints each metric that differs, or a run that reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run.py failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    exact = [name for name, _, _ in metrics.per_layer() if metrics.is_exact(name)]
    bad = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        diff = [name for name in exact if first["metrics"][name] != second["metrics"][name]]
        for name in diff:
            print(f"{workload}: {name} {first['metrics'][name]['value']} != {second['metrics'][name]['value']}")
        correct = first["correct"] and second["correct"]
        if not correct:
            print(f"{workload}: a traced run reported correct: false")
        print(f"{workload}: {len(exact) - len(diff)}/{len(exact)} exact metrics repeat")
        bad += bool(diff) or not correct
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
