"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; `run.py` prints exactly these.
"""

from __future__ import annotations

# name, unit, better
# The job figures are at reference speed (see speed.py), hence "ref".
END_TO_END = [
    ("jobs_per_ref_s", "1/s", "higher"),
    ("job_p50_ref_ms", "ms", "lower"),
    ("job_p90_ref_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    # 1 - fail_frac: a metric that is 0 on a healthy run has no usable bound
    ("ok_frac", "ratio", "higher"),
]

# Span names are "<layer>.<op>".  Layers listed with ops get per-op calls and
# busy time; the others are reported as a whole.
LAYER_OPS = {
    "laurent": ("mul", "invert", "pow", "gamma_act", "root", "phi_decompose", "other"),
    "phigamma": ("make_induced", "gamma_matrix", "commutes", "psi", "dual", "other"),
    "classify": ("normalize", "sim_frobenius", "sim_gamma", "other"),
    "meta": ("verify", "image", "invert", "irred", "other"),
    "metagroup": ("cocycle", "meta_mul", "kappa_split", "chi_z", "hilbert", "other"),
}
WHOLE_LAYERS = ("coeff", "galois", "chars", "cli")

# Ratios and counts recorded by the tracer; name -> (unit, better).
DERIVED = {
    "coeff.field_make_ms": ("ms", "lower"),
    "laurent.mul.terms": ("count", "lower"),
    "laurent.mul.terms_per_s": ("1/s", "higher"),
    "laurent.prec_kept": ("ratio", "higher"),
    "phigamma.psi.prec_kept": ("ratio", "higher"),
    "meta.invert_attempts": ("count", "lower"),
    "cli.bytes_out": ("count", "lower"),
    "bench.check_ms": ("ms", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}

# Metrics that must repeat exactly between runs with one seed.
EXACT = ("laurent.mul.terms", "laurent.prec_kept", "phigamma.psi.prec_kept",
         "meta.invert_attempts", "cli.bytes_out")


def per_layer():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer, ops in LAYER_OPS.items():
        for op in ops:
            out += [(f"{layer}.{op}.calls", "count", "lower"), (f"{layer}.{op}.busy_ms", "ms", "lower")]
    for layer in WHOLE_LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.busy_ms", "ms", "lower")]
    out += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return out


def is_exact(name):
    return name.endswith(".calls") or name in EXACT
