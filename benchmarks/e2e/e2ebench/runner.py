"""One benchmark run of one workload, start to report."""

from __future__ import annotations

from e2ebench import measure, report, trace
from e2ebench.spec import Spec
from e2ebench.workloads import WORKLOADS


def run_workload(
    spec: Spec,
    name: str,
    seed: int,
    seconds: float,
    mode: str,
    smoke: bool = False,
    spans_path: str | None = None,
) -> dict:
    """Set the workload up, measure it, and return the run's report.

    ``mode`` is ``"0"`` (end-to-end metrics, tracing off), ``"1"``
    (per-layer metrics from a traced run) or ``"both"`` (one process,
    one set of inputs, both kinds of run).
    """
    untraced = mode in ("0", "both")
    traced = mode in ("1", "both")
    workload = WORKLOADS[name](seed, smoke=smoke)
    failures = measure.Failures()
    values: dict[str, float] = {}
    context: dict[str, float] = {}
    attempted = 0
    try:
        repeats = workload.sizes.setup_repeats if untraced else 1
        setup_seconds = measure.timed_setup(workload, repeats)
        fingerprints = workload.input_fingerprints()
        if untraced:
            run = measure.run_untraced(workload, seconds, failures)
            attempted += len(run.kinds)
            fingerprints["result"] = run.result_fingerprint
        if traced:
            if untraced and workload.mutates_index:
                # The traced passes replay the mutation stream from its
                # start, so they need the index as it was built.
                workload.close()
                workload.setup()
            layers, steps = trace.run_traced(workload, failures, spans_path)
            attempted += steps
    finally:
        workload.close()
    if untraced:  # after close(): peak RSS covers the reaped shard workers
        values, context = measure.end_to_end_metrics(setup_seconds, run)
    if traced:
        values.update(layers)
    status, differing = report.check_fingerprints(name, seed, smoke, fingerprints)
    for which in differing:
        failures.add(f"fingerprint of {which} differs from fingerprints.json")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": mode,
        "smoke": smoke,
        "metrics": report.metric_objects(spec, values),
        "context": context,
        "attempted": attempted,
        "failed": failures.count,
        "failures": failures.messages,
        "fingerprints": fingerprints,
        "fingerprint_status": status,
    }
