"""Online adaptation under workload drift: static vs self-tuning service.

Not a paper experiment — this measures the ``repro.core.adaptive`` loop
end to end on the drifting-hotspot workload:

1. Both services start from the same index, trained offline on phase-0
   history (the paper's Section 3.3.1 phase).
2. Phase-0 queries stream through both: solely-true-hit rates and exact
   join latencies match, since both are trained for this traffic.
3. The hotspots move (phase 1).  The *static* service keeps serving with
   yesterday's training; the *adaptive* service notices its windowed STH
   rate sinking below target, retrains on the observed traffic histogram
   in the background, and swaps the fresh snapshot in.
4. The tail of phase 1 is measured: the adaptive service should have
   recovered its STH rate (and exact-join p50), while join results stay
   bit-identical to a fresh build trained on the same observed points.
"""

from __future__ import annotations

import numpy as np

from repro.bench.result import ExperimentResult
from repro.bench.workbench import Workbench
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core import AdaptationPolicy, PolygonIndex
from repro.core.builder import BuildTimings, build_store
from repro.core.training import SthEvaluator, train_super_covering
from repro.datasets import drifting_hotspot_workload
from repro.serve import JoinService
from repro.util.timing import Timer

#: Hot-cell cache capacity for both services (distinct truncated keys).
ADAPT_CACHE_CELLS = 1 << 16


def _clone_index(index: PolygonIndex) -> PolygonIndex:
    """An independent index over the same covering (fresh store + version)."""
    covering = index.super_covering.copy()
    store = build_store(covering)
    return PolygonIndex(
        list(index.polygons),
        covering,
        store,
        store.lookup_table,
        BuildTimings(),
        index.precision_meters,
        index.training_report,
    )


def _stream(service: JoinService, lats, lngs, batch: int) -> dict[str, float]:
    """Stream a query range in batches; per-batch exact-join metrics."""
    latencies = []
    solely = 0
    pairs = 0
    for lo in range(0, len(lats), batch):
        with Timer() as timer:
            result = service.join(lats[lo : lo + batch], lngs[lo : lo + batch], exact=True)
        latencies.append(timer.seconds)
        solely += result.solely_true_hits
        pairs += result.num_pairs
    samples = np.asarray(latencies) * 1e3
    return {
        "sth": solely / len(lats),
        "p50_ms": float(np.percentile(samples, 50)),
        "p99_ms": float(np.percentile(samples, 99)),
        "pairs": pairs,
    }


#: Polygon dataset: complex boundaries (662 avg vertices) make PIP tests
#: expensive, which is exactly the regime Section 3.3.1 training targets —
#: refinement savings dominate the extra trie descent the finer grid costs.
ADAPT_DATASET = "boroughs"


def run(workbench: Workbench) -> list[ExperimentResult]:
    config = workbench.config
    polygons = workbench.polygons(ADAPT_DATASET)
    workload = drifting_hotspot_workload(
        num_phases=2,
        train_points=config.adapt_train_points,
        query_points=config.adapt_query_points,
        seed=config.seed,
    )
    phase0, phase1 = workload.phases

    train_ids = cell_ids_from_lat_lng_arrays(phase0.train_lats, phase0.train_lngs)
    base = PolygonIndex.build(polygons, training_cell_ids=train_ids)
    static_index = base
    adaptive_index = _clone_index(base)

    # Target just below the trained covering's own phase-0 STH: any real
    # drift sinks the window below it, phase-0 noise does not.
    evaluator = SthEvaluator(base.super_covering)
    phase0_sth = evaluator.rate(
        cell_ids_from_lat_lng_arrays(phase0.query_lats, phase0.query_lngs)
    )
    policy = AdaptationPolicy(
        sth_target=max(0.0, phase0_sth - 0.03),
        window_points=2 * config.adapt_batch,
        min_window_points=config.adapt_batch,
        cooldown_points=2 * config.adapt_batch,
        max_training_points=config.adapt_train_points // 2,
    )

    result = ExperimentResult(
        experiment_id="adapt",
        title="Workload-adaptive retraining under a drifting hotspot stream",
        headers=["phase", "service", "STH rate", "p50 ms", "p99 ms"],
    )

    half = len(phase1.query_lats) // 2
    with JoinService(static_index, cache_cells=ADAPT_CACHE_CELLS) as static_svc, \
            JoinService(
                adaptive_index,
                cache_cells=ADAPT_CACHE_CELLS,
                adaptation=policy,
            ) as adaptive_svc:
        for name, svc in (("static", static_svc), ("adaptive", adaptive_svc)):
            metrics = _stream(
                svc, phase0.query_lats, phase0.query_lngs, config.adapt_batch
            )
            result.add_row(
                "0 (trained)", name,
                f"{metrics['sth']:.3f}", f"{metrics['p50_ms']:.2f}",
                f"{metrics['p99_ms']:.2f}",
            )
        # The hotspots move.  Stream the first half of phase 1 (the drift
        # is detected here), let any in-flight retrain land, then measure
        # the tail on equal footing.
        for svc in (static_svc, adaptive_svc):
            _stream(svc, phase1.query_lats[:half], phase1.query_lngs[:half],
                    config.adapt_batch)
        controller = adaptive_svc.adaptation
        controller.wait(timeout=300.0)
        if controller.last_error is not None:
            raise controller.last_error
        tail: dict[str, dict[str, float]] = {}
        for name, svc in (("static", static_svc), ("adaptive", adaptive_svc)):
            tail[name] = _stream(
                svc, phase1.query_lats[half:], phase1.query_lngs[half:],
                config.adapt_batch,
            )
            result.add_row(
                "1 (drifted)", name,
                f"{tail[name]['sth']:.3f}", f"{tail[name]['p50_ms']:.2f}",
                f"{tail[name]['p99_ms']:.2f}",
            )
        stats = adaptive_svc.stats()
        observed_ids = controller.last_training_ids("default")
        # Correctness witness, taken through the live serving path (cache,
        # swapped-in snapshot and all): joined again below against a fresh
        # build trained on the same observed points.
        tail_ids = cell_ids_from_lat_lng_arrays(
            phase1.query_lats[half:], phase1.query_lngs[half:]
        )
        adapted = adaptive_svc.join(
            phase1.query_lats[half:], phase1.query_lngs[half:],
            exact=True,
        )

    recovery = tail["adaptive"]["sth"] - tail["static"]["sth"]
    result.add_note(
        f"adaptive retrains completed: {stats.retrains}; "
        f"post-drift STH {tail['adaptive']['sth']:.3f} vs static "
        f"{tail['static']['sth']:.3f} (recovery +{recovery:.3f}; acceptance: > 0)"
    )
    result.add_note(
        f"post-drift exact-join p50 {tail['adaptive']['p50_ms']:.2f} ms vs "
        f"static {tail['static']['p50_ms']:.2f} ms"
    )

    # Correctness: the adapted layer's join results must be bit-identical
    # to a fresh build trained on the same observed points.
    fresh = _clone_index(base)
    if observed_ids is not None:
        train_super_covering(
            fresh.super_covering, polygons, observed_ids,
            max_cells=None, order="hot",
        )
        store = build_store(fresh.super_covering)
        fresh = PolygonIndex(
            list(fresh.polygons), fresh.super_covering, store, store.lookup_table,
            BuildTimings(), fresh.precision_meters, fresh.training_report,
        )
    reference = fresh.join(
        phase1.query_lats[half:], phase1.query_lngs[half:],
        exact=True, cell_ids=tail_ids,
    )
    identical = bool(
        np.array_equal(adapted.counts, reference.counts)
        and adapted.num_pairs == reference.num_pairs
    )
    result.add_note(
        "join results vs fresh build trained on the observed points: "
        + ("bit-identical" if identical else "MISMATCH")
    )
    if not identical:
        raise AssertionError("adapted join results diverged from fresh build")

    return [result]
