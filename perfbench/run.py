"""Closed-loop benchmark of the metaplectic library.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from `src/`.  One
process, one thread, one caller: the next job starts only after the previous
one returns.  Workloads are `series`, `modules`, `bijection` and `cover`
(see `workloads/`); the seed makes every input.

With `--trace 0` the run reports the end-to-end metrics: throughput, median
and p90 job latency, set-up time in fresh processes, peak RSS and the share
of jobs whose exact checks passed.  A job's latency is the wall time of its
library calls and exact checks; input generation is not in it.  Each run
makes whole cycles of its workload's schedule and at least MIN_JOBS jobs, so
at least 10 latencies lie beyond the p90.  Every job's times are taken at
reference speed: scaled by the speed of a fixed reference loop timed around
it (see speed.py).  The percentiles count every job; throughput is built
from each schedule slot's median time (see job_metrics).  The unscaled
wall-clock figures are printed beside them.  Set-up is the median of
samples taken before, during and after the jobs, each the best of three
fresh interpreters (see setup_time).

With `--trace 1` the run repeats the first TRACE_JOBS jobs of the seed in
passes.  Each job runs once to warm up, then once untraced and once inside
spans around every library call (order alternating), so the tracing
overhead is measured on the same inputs.  Exact counts come from the first
pass and must repeat exactly in every later pass; busy times are medians
over passes.  `check_counts.py` checks the counts across two processes.

Every job's output is checked exactly; a job that raises counts as failed
and is never retried.  Job records go to `perfbench/out/`, spans of the
first traced pass too.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
import speed
from tracing import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("series", "modules", "bijection", "cover")
MIN_JOBS = 100
SETUP_EDGE_REPS = 3  # set-up samples before and again after the timed loop
SETUP_EVERY_S = 4.0  # and one this often during it
SETUP_BEST_OF = 3
HARD_STOP_S = 140  # the whole run must end well within 180 s

SETUP_CODE = """\
import importlib, json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for name in json.loads(sys.argv[2]):
    importlib.import_module(name)
t1 = time.perf_counter()
fields = json.loads(sys.argv[3])
if fields:
    from metaplectic.coeff import field_make
    for p, m in fields:
        field_make(p, m)
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def setup_time(wl):
    """(import + field_make, field_make) seconds: the best of SETUP_BEST_OF
    fresh interpreters started back to back.

    On a 2-vCPU VM shared with other tenants, a fresh interpreter's set-up
    took either about 16 or about 23 ms, depending on which core a neighbour
    was loading; the best of three removes that one-sided noise and the
    median over the run does the rest.
    """
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), json.dumps(wl.MODULES), json.dumps(wl.FIELDS)]
    samples = []
    for _ in range(SETUP_BEST_OF):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        imp, fld = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((imp + fld, fld))
    return min(samples)


def run_job(job, tr):
    """Run one job; returns (seconds, error or None).  Never retried."""
    t0 = time.perf_counter()
    try:
        job.run(tr)
        error = None
    except Exception:  # a raise is a failed job, recorded and counted
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, error


def job_record(k, job, seconds, error):
    rec = {"id": k, "kind": job.kind, **job.props, "ms": seconds * 1000, "ok": error is None}
    if error:
        rec["error"] = error
    return rec


def run_untraced(wl, seed, seconds, log, sample_setup):
    """Whole cycles of jobs until `seconds` have passed and MIN_JOBS are done.

    Returns one (schedule slot, wall seconds, latency seconds, error) per
    job and the reference readings (ms) taken before the first job and after
    each job.
    Wall time runs from the end of the previous reading, so it includes
    generation and logging but no reading.
    Every SETUP_EVERY_S, between two jobs and outside their wall time,
    `sample_setup()` times set-up in a fresh interpreter.
    """
    gen = wl.jobs(random.Random(seed))
    records = []
    speed.warm_up()
    readings = [speed.reading()]
    start = prev = last_sample = time.perf_counter()
    slot = 0
    while True:
        job = next(gen)
        dt, error = run_job(job, NULL)
        rec = job_record(len(records), job, dt, error)
        rec["ref_ms"] = readings[-1]
        log.write(json.dumps(rec) + "\n")
        now = time.perf_counter()
        records.append((slot, now - prev, dt, error))
        readings.append(speed.reading())
        slot = 0 if job.ends_cycle else slot + 1
        if now - start > HARD_STOP_S:
            print(f"warning: hard stop after {len(records)} jobs", file=sys.stderr)
            break
        if job.ends_cycle and len(records) >= MIN_JOBS and now - start >= seconds:
            break
        if now - last_sample >= SETUP_EVERY_S:
            sample_setup()
            last_sample = now
        prev = time.perf_counter()
    return records, readings


def job_metrics(records, readings=None):
    """(jobs per second, p50 ms, p90 ms) of the run.

    With `readings`, each job's times are first scaled to reference speed.
    The percentiles count every job's latency.  Throughput is one cycle's
    jobs over the time of a cycle made of each slot's median wall time: a
    slot that repeats only a few times per run (bijection's (5, 4) sweep,
    a few seconds each) then moves it by its typical time, not by the one
    repeat in which the machine's speed changed mid-job.
    """
    walls = [wall for _, wall, _, _ in records]
    latencies = [dt for _, _, dt, _ in records]
    if readings is not None:
        walls, latencies = speed.scaled(walls, readings), speed.scaled(latencies, readings)
    by_slot = {}
    for (slot, *_), wall in zip(records, walls):
        by_slot.setdefault(slot, []).append(wall)
    cycle_s = sum(statistics.median(w) for w in by_slot.values())
    return (len(by_slot) / cycle_s, statistics.median(latencies) * 1000,
            statistics.quantiles(latencies, n=10)[-1] * 1000)


def run_traced(wl, seed, seconds, log):
    """Passes over the first TRACE_JOBS jobs; returns per-pass tracers and totals."""
    passes, failed, attempted = [], 0, 0
    untraced = traced = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        tr = Tracer()
        gen = wl.jobs(random.Random(seed))
        for k in range(wl.TRACE_JOBS):
            tr.job_id = k
            with tr.span("bench.generate"):
                job = next(gen)
            # a discarded warm-up run first: the first run after generation is
            # slower, which would bias whichever timed run came first
            _, error = run_job(job, NULL)
            attempted += 1
            failed += error is not None
            for traced_run in ((False, True) if k % 2 else (True, False)):
                if traced_run:
                    with tr.span("job"):
                        dt, error = run_job(job, tr)
                    traced += dt
                else:
                    dt, error = run_job(job, NULL)
                    untraced += dt
                attempted += 1
                failed += error is not None
                if not passes:
                    rec = job_record(k, job, dt, error)
                    rec["traced"] = traced_run
                    log.write(json.dumps(rec) + "\n")
        tr.job_id = None
        passes.append(tr)
        now = time.perf_counter()
        if (len(passes) >= 2 and now >= deadline) or now - start > HARD_STOP_S:
            break
    return passes, attempted, failed, traced / untraced - 1


def exact_counts(tr):
    calls = {name: entry[0] for name, entry in tr.by_name().items()}
    return calls, dict(tr.counts)


def layer_metrics(passes, field_make_s, overhead):
    """Per-layer metrics from the traced passes."""
    first_calls, counts = exact_counts(passes[0])
    busy = [{name: entry[1] for name, entry in tr.by_name().items()} for tr in passes]

    known = {f"{layer}.{op}" for layer, ops in metrics.LAYER_OPS.items() for op in ops}
    for name in first_calls:
        layer = name.split(".")[0]
        if name not in known and layer not in metrics.WHOLE_LAYERS + ("bench", "job", "trace"):
            raise RuntimeError(f"span {name!r} belongs to no reported metric")

    def select(prefix):
        return [n for n in first_calls if n == prefix or n.startswith(prefix + ".")]

    def median_busy_ms(names):
        return statistics.median(sum(b.get(n, 0.0) for n in names) for b in busy) * 1000

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out = {}
    for layer, ops in metrics.LAYER_OPS.items():
        for op in ops:
            names = select(f"{layer}.{op}")
            out[f"{layer}.{op}.calls"] = sum(first_calls[n] for n in names)
            out[f"{layer}.{op}.busy_ms"] = median_busy_ms(names)
    for layer in metrics.WHOLE_LAYERS:
        names = select(layer)
        out[f"{layer}.calls"] = sum(first_calls[n] for n in names)
        out[f"{layer}.busy_ms"] = median_busy_ms(names)
    mul_s = out["laurent.mul.busy_ms"] / 1000
    terms = counts.get("laurent.mul.terms", 0)
    out.update({
        "coeff.field_make_ms": field_make_s * 1000,
        "laurent.mul.terms": terms,
        "laurent.mul.terms_per_s": terms / mul_s if mul_s else 0.0,
        "laurent.prec_kept": ratio("laurent.prec_out", "laurent.prec_in"),
        "phigamma.psi.prec_kept": ratio("phigamma.psi.prec_out", "phigamma.psi.prec_in"),
        "meta.invert_attempts": ratio("meta.invert_candidates", "meta.inversions"),
        "cli.bytes_out": counts.get("cli.bytes_out", 0),
        "bench.check_ms": median_busy_ms(["job", "bench.generate"]),
        "bench.trace_overhead": overhead,
    })
    return out


def layer_shares(tr):
    """Share of the traced jobs' time in each layer's spans (self time), in
    the benchmark's own code ("bench") and in the tracer's counting."""
    shares, total = {}, 0.0
    for (name, start, end, _, _), own in zip(tr.spans, tr.self_times()):
        if name == "bench.generate":
            continue
        if name == "job":
            total += end - start
        key = "bench" if name == "job" else name.split(".")[0]
        shares[key] = shares.get(key, 0.0) + own
    return {key: own / total for key, own in sorted(shares.items(), key=lambda kv: -kv[1])}


def repeats_exactly(passes):
    first = exact_counts(passes[0])
    return all(exact_counts(tr) == first for tr in passes[1:])


def write_spans(path, tr):
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tr.spans}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "metaplectic" / "__init__.py").is_file():
        print(f"error: no metaplectic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import metaplectic

    if Path(metaplectic.__file__).resolve().parent != SRC / "metaplectic":
        print(f"error: imported metaplectic from {metaplectic.__file__}", file=sys.stderr)
        return 2
    wl = importlib.import_module(f"workloads.{args.workload}")

    setup_time(wl)  # warm-up: compiles the bytecode caches
    setup = []

    def sample_setup():
        setup.append(setup_time(wl))

    # set-up samples before, during and after the timed loop, so that one
    # burst of machine noise cannot move them all
    for _ in range(SETUP_EDGE_REPS):
        sample_setup()
    from metaplectic.coeff import field_make

    for p, m in wl.FIELDS:  # lazy set-up finishes before timing
        field_make(p, m)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.jobs.jsonl", "w") as log:
        if args.trace:
            passes, attempted, failed, overhead = run_traced(wl, args.seed, args.seconds, log)
        else:
            records, readings = run_untraced(wl, args.seed, args.seconds, log, sample_setup)
    for _ in range(SETUP_EDGE_REPS):
        sample_setup()
    setup_s = statistics.median(total for total, _ in setup)
    field_make_s = statistics.median(fld for _, fld in setup)

    if args.trace:
        values = layer_metrics(passes, field_make_s, overhead)
        correct = failed == 0 and repeats_exactly(passes)
        write_spans(f"{stem}.spans.json", passes[0])
        catalogue = metrics.per_layer()
        print(f"traced passes: {len(passes)} x {wl.TRACE_JOBS} jobs")
        shares = layer_shares(passes[0])
        print("job time by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        attempted = len(records)
        failed = sum(error is not None for *_, error in records)
        jobs_per_s, p50_ms, p90_ms = job_metrics(records, readings)
        values = {
            "jobs_per_ref_s": jobs_per_s,
            "job_p50_ref_ms": p50_ms,
            "job_p90_ref_ms": p90_ms,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        correct = failed == 0
        catalogue = metrics.END_TO_END
        print(f"job samples: {attempted}")
        jobs_per_s, p50_ms, p90_ms = job_metrics(records)
        print(f"wall clock: {jobs_per_s:.6g} jobs/s, p50 {p50_ms:.6g} ms, p90 {p90_ms:.6g} ms; "
              f"reference call {statistics.median(readings):.4g} ms (median), scaled to {speed.REF_MS} ms")

    for name, unit, _ in catalogue:
        print(f"{name:32s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
