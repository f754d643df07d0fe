"""Helpers shared by the workloads: the job record and schedule, traced
series calls and exact checks, and the supersingular closed form."""

from __future__ import annotations

from math import factorial, gcd


class CheckFailed(Exception):
    """An exact identity or known answer did not hold for a job's output."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


class Job:
    """One unit of closed-loop work.

    `props` are the input properties recorded with the job's result, so
    results can be sliced by them.  `run(tracer)` makes the library calls,
    checks every output exactly and raises on any mismatch.  `ends_cycle`
    marks the last job of the workload's schedule.
    """

    __slots__ = ("kind", "props", "run", "ends_cycle")

    def __init__(self, kind, props, run):
        self.kind = kind
        self.props = props
        self.run = run
        self.ends_cycle = False


def cycle_jobs(cycle, make, order=None):
    """Endless jobs make(i, *cycle[i]) with i running through `order`
    (default: every slot once) again and again."""
    order = order or range(len(cycle))
    while True:
        for pos, i in enumerate(order):
            job = make(i, *cycle[i])
            job.ends_cycle = pos == len(order) - 1
            yield job


def interleave(items, stride):
    """Reorder a cycle so that job sizes alternate."""
    n = len(items)
    if gcd(stride, n) != 1:
        raise ValueError("stride must be coprime to the cycle length")
    return [items[(i * stride) % n] for i in range(n)]


def nnz(f):
    """Known nonzero coefficients of a series, read through its public API."""
    v = f.valuation
    if v is None:
        return 0
    return sum(1 for e in range(v, f.prec) if not f.coeff(e).is_zero())


def series_mul(tr, a, b):
    """a * b in a `laurent.mul` span; counts schoolbook products and precision."""
    with tr.span("laurent.mul"):
        out = a * b
    if tr.enabled:
        with tr.span("trace.count"):
            tr.add("laurent.mul.terms", nnz(a) * nnz(b))
            series_prec(tr, min(a.prec, b.prec), out.prec)
    return out


def series_prec(tr, prec_in, prec_out):
    """Precision in and out of one series operation, for laurent.prec_kept."""
    tr.add("laurent.prec_in", prec_in)
    tr.add("laurent.prec_out", prec_out)


def agree(tr, a, b, what):
    """a and b agree to their common precision, checked in a laurent span."""
    with tr.span("laurent.other"):
        ok = a.agrees_with(b)
    check(ok, what)


def admissible(p):
    return [r for r in range(p) if r != (p - 1) // 2]


def closed_form(p, r):
    """(H, Lam) of the supersingular image of (r, eta = 1), from the closed formula."""
    half = (p - 1) // 2
    r_prime = half - r if r < half else 3 * half - r
    s_prime = p - 2 * r if r < half else 3 * p - 2 * r
    step = (p ** 4 - 1) // (p - 1)
    H = ((p * p + 1) // 2 * s_prime + (r - 1) * step) % (p ** 4 - 1)
    lam = (-1) ** half * factorial(r) ** 2 * factorial(r_prime) ** 2 % p
    return H, lam
