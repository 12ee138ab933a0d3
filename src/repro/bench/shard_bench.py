"""Sharded multi-process serving vs. the single-process service.

Not a paper experiment — this measures ``repro.serve.sharded`` on a
probe-heavy skewed stream (:func:`repro.datasets.shard_probe_points`:
90% of traffic in 16 hotspots over the neighborhoods layer, joined
``exact=True`` so every batch pays probe AND refinement).

For the single-process :class:`JoinService` and a
:class:`ShardedJoinService` at each shard count it streams the same
batches and reports points/second, the speedup over the single-process
service, the shard plan's owned-work balance, the measured geometry
replication factor, and the slowest worker's plane attach (the spawn
barrier's ping replies, so interpreter start-up is excluded).  Join
counts are asserted bit-identical to ``PolygonIndex.join`` on every
configuration: the partition must be invisible in the results.

The copy-the-straddlers publication and the worker-side store rebuild
this runner used to compare against are retired; their last recorded
rows are in CHANGES.md (PR 13).

Acceptance: >= 2x batch-join throughput with 4 shards vs. the
single-process service, and a measured replication factor <= 1.05
(structurally 1.0: straddler geometry lives once in the shared plane,
never in a coverage plane).  Share-nothing scaling needs
hardware lanes: the closing note records how many CPU cores the machine
actually offered, since on a single-core box the shard processes merely
timeshare and the scatter/gather overhead is all that remains.
"""

from __future__ import annotations

import os

import numpy as np

from repro.bench.result import ExperimentResult
from repro.bench.workbench import Workbench
from repro.core.builder import BuildTimings, PolygonIndex
from repro.datasets import shard_probe_points
from repro.serve import JoinService, ShardedJoinService
from repro.util.timing import Timer

#: Precision bound (meters) for the served layer.
SHARD_PRECISION = 15.0


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _layer_index(workbench: Workbench, dataset: str = "neighborhoods") -> PolygonIndex:
    """Wrap the workbench's cached covering/store into a PolygonIndex."""
    covering, _ = workbench.super_covering(dataset, SHARD_PRECISION)
    store = workbench.store(dataset, SHARD_PRECISION, "ACT4")
    return PolygonIndex(
        workbench.polygons(dataset),
        covering,
        store,
        store.lookup_table,
        BuildTimings(),
        SHARD_PRECISION,
        None,
    )


def _stream(service, lats, lngs, batch: int) -> tuple[float, np.ndarray, int]:
    """Stream the workload in batches; returns (pps, total counts, pairs)."""
    totals = None
    pairs = 0
    with Timer() as timer:
        for lo in range(0, len(lats), batch):
            result = service.join(
                lats[lo : lo + batch], lngs[lo : lo + batch], exact=True
            )
            totals = result.counts if totals is None else totals + result.counts
            pairs += result.num_pairs
    pps = len(lats) / timer.seconds if timer.seconds > 0 else 0.0
    return pps, totals, pairs


def run(workbench: Workbench) -> list[ExperimentResult]:
    config = workbench.config
    index = _layer_index(workbench)
    lats, lngs = shard_probe_points(config.shard_points, seed=config.seed)

    # The ground truth the partition must be invisible against.
    reference = index.join(lats, lngs, exact=True)

    result = ExperimentResult(
        experiment_id="shard",
        title="Sharded multi-process serving (probe-heavy skewed stream)",
        headers=[
            "configuration",
            "points/s",
            "speedup",
            "owned-work balance",
            "replication",
            "spawn attach",
            "counts",
        ],
    )

    with JoinService(index) as single:
        base_pps, base_counts, base_pairs = _stream(
            single, lats, lngs, config.shard_batch
        )
    if not np.array_equal(
        base_counts, reference.counts
    ):  # pragma: no cover - correctness guard
        raise AssertionError(
            "single-process JoinService counts diverged from "
            "PolygonIndex.join"
        )
    result.add_row(
        "JoinService (1 process)",
        f"{base_pps:,.0f}",
        "1.0x",
        "-",
        "-",
        "-",
        "identical",
    )

    speedups: dict[int, float] = {}
    plane_bytes = (0, 0)
    for num_shards in config.shard_counts:
        with ShardedJoinService(
            index, num_shards=num_shards, backend="process"
        ) as sharded:
            attach_seconds = max(sharded.spawn_seconds)
            pps, counts, pairs = _stream(
                sharded, lats, lngs, config.shard_batch
            )
            work = sharded.plan().owned_work
            replication = sharded.replication_factor()
            plane_bytes = sharded.plane_bytes()
        identical = (
            np.array_equal(counts, reference.counts)
            and pairs == reference.num_pairs
        )
        if not identical:  # pragma: no cover - correctness guard
            raise AssertionError(
                f"sharded counts diverged from PolygonIndex.join at "
                f"{num_shards} shards"
            )
        if replication > 1.05:  # pragma: no cover - guard
            raise AssertionError(
                f"replication factor {replication:.3f} exceeds 1.05: "
                "straddler geometry leaked into a coverage plane"
            )
        speedups[num_shards] = pps / base_pps if base_pps > 0 else 0.0
        balance = f"{min(work):,}..{max(work):,}" if work else "-"
        result.add_row(
            f"ShardedJoinService ({num_shards} shard"
            f"{'s' if num_shards != 1 else ''})",
            f"{pps:,.0f}",
            f"{speedups[num_shards]:.2f}x",
            balance,
            f"{replication:.2f}x",
            f"{attach_seconds * 1e3:.1f}ms",
            "identical",
        )

    cores = _available_cores()
    result.add_note(
        f"{config.shard_points:,} exact-join points in batches of "
        f"{config.shard_batch:,}; counts bit-identical to "
        "PolygonIndex.join on every configuration"
    )
    geometry, coverage = plane_bytes
    result.add_note(
        f"publication at {max(config.shard_counts)} shards: "
        f"{geometry / 1024:,.0f} KiB geometry shared once + "
        f"{coverage / 1024:,.0f} KiB per-shard coverage planes; "
        "replication factor 1.00 (acceptance: <= 1.05)"
    )
    result.add_note(
        "spawn column: slowest worker-side service construction — a "
        "zero-copy attach of the published planes (interpreter start-up "
        "excluded)"
    )
    if 4 in speedups:
        result.add_note(
            f"4 shards vs single process: {speedups[4]:.2f}x "
            f"(acceptance: >= 2x, needs >= 4 hardware cores; this "
            f"machine offered {cores})"
        )
    else:
        best = max(speedups.values()) if speedups else 0.0
        result.add_note(
            f"best sharded speedup {best:.2f}x on {cores} core(s) "
            "(acceptance sweep runs 4 shards at full scale)"
        )
    return [result]
