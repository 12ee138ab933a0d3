"""Online adaptation under workload drift: static vs self-tuning service.

Not a paper experiment — this measures the ``repro.core.adaptive`` loop
end to end on the drifting-hotspot workload:

1. Every service starts from the same index, trained offline on phase-0
   history (the paper's Section 3.3.1 phase).
2. Phase-0 queries stream through each: solely-true-hit rates and exact
   join latencies match, since all are trained for this traffic.
3. The hotspots move (phase 1).  The *static* service keeps serving with
   yesterday's training; the *adaptive* services notice their windowed
   STH rate sinking below target, retrain on the observed traffic
   histogram in the background, and swap the fresh snapshot in — a
   :class:`JoinService`, and a 2-lane process-backend
   :class:`ShardedJoinService`, whose front runs the one loop over the
   traffic its lanes report and publishes the retrain to every lane.
4. The tail of phase 1 is measured: the adaptive services should have
   recovered their STH rate (and exact-join p50), the sharded one to
   within 0.01 of the JoinService's, while join results stay
   bit-identical to a fresh build trained on the same observed points.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.bench.result import ExperimentResult
from repro.bench.workbench import Workbench
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core import AdaptationPolicy, PolygonIndex
from repro.core.training import SthEvaluator
from repro.datasets import drifting_hotspot_workload
from repro.serve import JoinService, ShardedJoinService
from repro.serve.service import ServiceFront
from repro.util.timing import Timer

#: Hot-cell cache capacity for every service (and every lane).
ADAPT_CACHE_CELLS = 1 << 16
#: Lanes of the sharded adaptive service.
ADAPT_SHARDS = 2


def _stream(service: ServiceFront, lats, lngs, batch: int) -> dict[str, float]:
    """Stream a query range in batches; per-batch exact-join metrics."""
    latencies = []
    solely = 0
    for lo in range(0, len(lats), batch):
        with Timer() as timer:
            result = service.join(lats[lo : lo + batch], lngs[lo : lo + batch], exact=True)
        latencies.append(timer.seconds)
        solely += result.solely_true_hits
    samples = np.asarray(latencies) * 1e3
    return {
        "sth": solely / len(lats),
        "p50_ms": float(np.percentile(samples, 50)),
        "p99_ms": float(np.percentile(samples, 99)),
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

    # Target just below the trained covering's own phase-0 STH: any real
    # drift sinks the window below it, phase-0 noise does not.
    phase0_sth = SthEvaluator(base.super_covering).rate(
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
    tail_points = phase1.query_lats[half:], phase1.query_lngs[half:]
    sharded = f"adaptive x{ADAPT_SHARDS} lanes"
    with contextlib.ExitStack() as stack:
        # Every service serves ``base``: a retrain installs a new index
        # and leaves the one it trained from untouched.
        services: dict[str, ServiceFront] = {
            "static": stack.enter_context(
                JoinService(base, cache_cells=ADAPT_CACHE_CELLS)
            ),
            "adaptive": stack.enter_context(
                JoinService(base, cache_cells=ADAPT_CACHE_CELLS, adaptation=policy)
            ),
            sharded: stack.enter_context(ShardedJoinService(
                base, num_shards=ADAPT_SHARDS, cache_cells=ADAPT_CACHE_CELLS,
                adaptation=policy,
            )),
        }
        adaptive = {
            name: svc for name, svc in services.items() if svc.adaptation is not None
        }

        def measure(phase: str, lats, lngs) -> dict[str, dict[str, float]]:
            metrics = {}
            for name, svc in services.items():
                metrics[name] = row = _stream(svc, lats, lngs, config.adapt_batch)
                result.add_row(
                    phase, name, f"{row['sth']:.3f}", f"{row['p50_ms']:.2f}",
                    f"{row['p99_ms']:.2f}",
                )
            return metrics

        measure("0 (trained)", phase0.query_lats, phase0.query_lngs)
        # The hotspots move.  Stream the first half of phase 1 (the drift
        # is detected here), let any in-flight retrain land, then measure
        # the tail on equal footing.
        for svc in services.values():
            _stream(svc, phase1.query_lats[:half], phase1.query_lngs[:half],
                    config.adapt_batch)
        for svc in adaptive.values():
            svc.adaptation.wait(timeout=300.0)
            if svc.adaptation.last_error is not None:
                raise svc.adaptation.last_error
        tail = measure("1 (drifted)", *tail_points)
        # Correctness witnesses, taken through the live serving paths
        # (cache, lanes, swapped-in snapshot and all): joined again below
        # against fresh builds trained on the same observed points.
        retrains = {name: svc.stats().retrains for name, svc in adaptive.items()}
        observed = {
            name: svc.adaptation.last_training_ids("default")
            for name, svc in adaptive.items()
        }
        adapted = {
            name: svc.join(*tail_points, exact=True) for name, svc in adaptive.items()
        }

    recovery = tail["adaptive"]["sth"] - tail["static"]["sth"]
    result.add_note(
        f"adaptive retrains completed: {retrains['adaptive']}; "
        f"post-drift STH {tail['adaptive']['sth']:.3f} vs static "
        f"{tail['static']['sth']:.3f} (recovery +{recovery:.3f}; acceptance: > 0)"
    )
    result.add_note(
        f"post-drift exact-join p50 {tail['adaptive']['p50_ms']:.2f} ms vs "
        f"static {tail['static']['p50_ms']:.2f} ms"
    )
    gap = abs(tail[sharded]["sth"] - tail["adaptive"]["sth"])
    result.add_note(
        f"{ADAPT_SHARDS}-lane process front (one loop, at the front) retrains "
        f"completed: {retrains[sharded]}; post-drift STH {tail[sharded]['sth']:.3f} "
        f"vs adaptive JoinService {tail['adaptive']['sth']:.3f} "
        f"(gap {gap:.3f}; acceptance: <= 0.01)"
    )

    # Correctness: each adapted layer's join results must be bit-identical
    # to a fresh build trained on the same observed points.
    tail_ids = cell_ids_from_lat_lng_arrays(*tail_points)
    mismatched = []
    for name, served in adapted.items():
        fresh = (
            base
            if observed[name] is None
            else base.retrained(observed[name], max_cells=None)
        )
        reference = fresh.join(*tail_points, exact=True, cell_ids=tail_ids)
        if not (
            np.array_equal(served.counts, reference.counts)
            and served.num_pairs == reference.num_pairs
        ):
            mismatched.append(name)
    result.add_note(
        f"join results vs fresh build trained on the observed points "
        f"({', '.join(adapted)}): "
        + (f"MISMATCH ({', '.join(mismatched)})" if mismatched else "bit-identical")
    )
    if mismatched:
        raise AssertionError(f"adapted join results diverged from fresh build: {mismatched}")

    return [result]
