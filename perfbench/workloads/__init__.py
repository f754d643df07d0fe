"""Workload generators: one module per workload, each exposing MODULES,
FIELDS, TRACE_JOBS and jobs(rng)."""
