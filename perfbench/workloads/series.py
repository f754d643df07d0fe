"""`series`: dense seeded Laurent series over F_p and F_{p^2}.

Each job takes one dense series f (valuation -2..0, precision N) and one
dense 1-unit g, runs `invert_series`, `__mul__`, `gamma_act` at a unit,
`one_unit_root`, `pow` and `phi_basis_decompose`, and checks exact
identities: f * f^-1 = 1 and gamma(f) * gamma(f^-1) = 1 to the claimed
precision (at least N - v), root^n = g, and sum_i (1+X)^i g_i(X^p) = f.

Why: `laurent` and `coeff` do almost all the work.  N runs from 32 to 256,
across the sizes where a packed multiplication kernel's fixed cost and its
asymptotic gain cross; large N is kept rare so no job dominates a run.
"""

from __future__ import annotations

from math import comb

from metaplectic.coeff import field_make
from metaplectic.laurent import (
    LaurentSeries,
    frobenius_phi,
    gamma_act,
    one_unit_root,
    phi_basis_decompose,
)

from workloads.common import Job, agree, check, cycle_jobs, interleave, series_mul, series_prec

MODULES = ["metaplectic.laurent"]
FIELDS = [(p, m) for p in (3, 5, 7) for m in (1, 2)]

# One cycle of (p, m, N); the seed fills in the coefficients.  Job cost grows
# about as N^2 p, so the largest sizes run at the smallest p; the stride
# spreads the large sizes through the cycle.  (5, 1, 128) and (7, 1, 112)
# cost about the same, so the p90 of a run falls inside that pair's 2 of 13
# jobs, not on the edge of one slot's 1 of 13, where it moved with the
# slowest two or three repeats of one slot.
_SIZES = (
    [(3, 1, N) for N in (32, 64, 128, 256)]
    + [(5, 1, N) for N in (32, 64, 128)]
    + [(7, 1, N) for N in (32, 64, 112)]
    + [(3, 2, 48), (5, 2, 32), (7, 2, 32)]
)
CYCLE = interleave(_SIZES, 5)
TRACE_JOBS = len(CYCLE)


def _unit(rng, spec):
    while True:
        x = spec.elem([rng.randrange(spec.p) for _ in range(spec.m)])
        if not x.is_zero():
            return x


def _dense(rng, spec, v, N, one_unit=False):
    """Every coefficient from X^v to X^(N-1) nonzero, so the cost of a job
    does not depend on the seed."""
    coeffs = {e: _unit(rng, spec) for e in range(v, N)}
    if one_unit:
        coeffs[v] = spec.one()
    return LaurentSeries(spec, coeffs, N)


def jobs(rng):
    return cycle_jobs(CYCLE, lambda i, p, m, N: _make_job(rng, field_make(p, m), N, i))


def _make_job(rng, spec, N, i):
    # The cycle position, not the seed, picks the parameters that set a job's
    # cost (valuation, unit, root degree): every seed runs the same schedule.
    p = spec.p
    v = -(i % 3)
    c = (2, 1 + p)[i // 3 % 2]
    degrees = [x for x in (2, 3, 4) if x % p]
    n = degrees[i // 6 % len(degrees)]
    f = _dense(rng, spec, v, N)
    g = _dense(rng, spec, 0, N, one_unit=True)
    # (1+X)^i for the reassembly check, exact beyond every precision used
    binomials = [
        LaurentSeries.from_int_coeffs(spec, {k: comb(j, k) % p for k in range(j + 1)}, N + 2 * p)
        for j in range(p)
    ]
    known = N - v
    props = {
        "p": p,
        "m": spec.m,
        "q": spec.order,
        "N": N,
        "valuation": v,
        "density": 1.0,
        "c": c,
        "n": n,
    }

    def run(tr):
        with tr.span("laurent.invert"):
            fi = f.invert_series()
        one = series_mul(tr, f, fi)
        check(one.prec >= known, f"f * f^-1 precision {one.prec} < {known}")
        agree(tr, one, LaurentSeries.one(spec, one.prec), "f * f^-1 = 1")

        with tr.span("laurent.gamma_act"):
            gf = gamma_act(c, f)
        with tr.span("laurent.gamma_act"):
            gfi = gamma_act(c, fi)
        gone = series_mul(tr, gf, gfi)
        check(gone.prec >= known, f"gamma(f) * gamma(f^-1) precision {gone.prec} < {known}")
        agree(tr, gone, LaurentSeries.one(spec, gone.prec), "gamma(f) * gamma(f^-1) = 1")

        with tr.span("laurent.root"):
            root = one_unit_root(g, n)
        with tr.span("laurent.pow"):
            back = root.pow(n)
        check(back.prec >= N, f"root^n precision {back.prec} < {N}")
        agree(tr, back, g, "root^n = g")

        with tr.span("laurent.phi_decompose"):
            comps = phi_basis_decompose(f)
        floor = p * (N // p - 1)
        check(p * min(x.prec for x in comps) >= floor, "phi_basis_decompose precision")
        acc = None
        for i, comp in enumerate(comps):
            with tr.span("laurent.other"):
                term = frobenius_phi(comp)
            if i:
                term = series_mul(tr, binomials[i], term)
            with tr.span("laurent.other"):
                acc = term if acc is None else acc + term
        check(acc.prec >= floor, "reassembly precision")
        agree(tr, acc, f, "sum (1+X)^i g_i(X^p) = f")

        if tr.enabled:
            with tr.span("trace.count"):
                series_prec(tr, N, fi.prec)
                series_prec(tr, N, gf.prec)
                series_prec(tr, fi.prec, gfi.prec)
                series_prec(tr, N, root.prec)
                series_prec(tr, root.prec, back.prec)

    return Job("series", props, run)
