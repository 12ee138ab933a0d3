"""End-to-end benchmark harness (see ../README.md).

Drives the unmodified program through its public entry points only and
measures it from outside: end-to-end metrics with tracing off, a
per-layer budget from a separate traced run.  The metric and workload
names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; this package never hard-codes a second copy of them.
"""
