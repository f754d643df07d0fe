"""The machine's momentary speed, read from a fixed reference loop.

On a VM that shares its cores with other tenants, pure-Python code runs at
one speed for seconds to minutes and then at another, up to about 1.9 times
slower; process CPU time slows down with wall time.  A figure that counts
raw wall time then moves with the share of a run spent at the slow speed,
more than any code change the benchmark is meant to show.

`reference()` is a fixed mix of the work the library does (modular
multiply-adds over lists, dict and tuple work, `Fraction` sums) that never
calls the library, so no change to the library can move it.  The benchmark
times it next to every job, and `scaled()` expresses a job's wall time at
the speed at which one reference call takes REF_MS: wall time times REF_MS
over the reference time measured around that job.  A slowdown of the whole
machine moves both and cancels; a slowdown inside the library (a lazily
built table, a GC pause, a cache thrown away) moves only the job's time and
shows in full.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_MS = 0.5  # the speed scaled times are expressed at: one reference call takes this long
REPEATS = 3  # reference calls per reading
WINDOW = 2  # readings on each side of a job that set its speed


def reference():
    a = list(range(1, 41))
    b = [(7 * i + 3) % 41 for i in range(40)]
    out = [0] * 80
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % 41
    d = {}
    for i in range(600):
        key = (i % 17, out[i % 80])
        d[key] = d.get(key, ()) + (i,) if i % 50 == 0 else key
    rows = [tuple(range(i % 8)) for i in range(100)]
    f = Fraction(0)
    for i in range(1, 20):
        f += Fraction(i % 7 + 1, i)
    return out, d, rows, f


def reading():
    """Milliseconds of one reference call, the mean over REPEATS calls."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        reference()
    return (perf_counter() - t0) / REPEATS * 1000


def warm_up():
    """Lets the interpreter specialise the loop before the first reading."""
    for _ in range(50):
        reference()


def scaled(times, readings):
    """Each of `times` (seconds) at reference speed.

    `readings` has one more entry than `times`: job k ran between readings
    k and k + 1.  Its speed is the median of the WINDOW readings on each side
    of it, which keeps one disturbed reading from moving the job.
    """
    if len(readings) != len(times) + 1:
        raise ValueError("need one reading before each job and one after the last")
    out = []
    for k, t in enumerate(times):
        ref_ms = statistics.median(readings[max(0, k + 1 - WINDOW):k + 1 + WINDOW])
        out.append(t * REF_MS / ref_ms)
    return out
