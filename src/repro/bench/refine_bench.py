"""Refinement engine: the bucket table's one kernel vs. the mask loop.

Not a paper experiment — this measures the refinement engine
(:mod:`repro.geo.refine`: table assembly, then the one ragged crossing
kernel) against the historical per-polygon-mask loop
(:func:`repro.core.joins.refine_candidates_masks`) on a many-polygon
Voronoi workload, the regime where the mask loop's
O(unique polygons x candidates) grouping cost dominates.

Both paths refine the *same* candidate pair arrays produced by one
shared probe, so the comparison isolates the refinement phase; the
kept-pair arrays and per-polygon counts are checked bit-identical before
any timing is reported (a mismatch aborts the run).  The closing note
states the steady-state speedup (acceptance: >= 3x at >= 1k polygons)
and the one-time table assembly cost amortized away by it.
"""

from __future__ import annotations

import numpy as np

from repro.bench.result import ExperimentResult
from repro.bench.workbench import Workbench
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core.builder import PolygonIndex
from repro.core.joins import batch_probe, refine_candidates_masks
from repro.datasets import uniform_points_for
from repro.datasets.polygons import densify_polygons, voronoi_partition
from repro.datasets.workloads import NYC_BOX
from repro.geo.refine import RefinementEngine
from repro.util.timing import Timer


def _build_workload(config) -> tuple[PolygonIndex, np.ndarray, np.ndarray]:
    """A census-style many-polygon layer plus a uniform probe stream."""
    cells = voronoi_partition(NYC_BOX, config.refine_polygons, seed=config.seed)
    polygons = densify_polygons(
        cells, config.refine_avg_vertices, 0.08, seed=config.seed + 1
    )
    # No precision refinement: boundary cells stay coarse, so a healthy
    # share of probe hits are candidates and refinement has real work.
    index = PolygonIndex.build(polygons)
    lats, lngs = uniform_points_for(
        polygons, config.refine_points, seed=config.seed + 2
    )
    return index, lats, lngs


def run(workbench: Workbench) -> list[ExperimentResult]:
    config = workbench.config
    index, lats, lngs = _build_workload(config)
    cell_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
    point_idx, pids, is_true = batch_probe(
        index.store, index.lookup_table, cell_ids
    )
    num_candidates = int(np.count_nonzero(~is_true))

    # Steady-state timing for both paths: one untimed warm-up pass (page
    # cache, polygon edge caches), then best of three timed passes.
    refine_candidates_masks(point_idx, pids, is_true, index.polygons, lngs, lats)
    old_seconds = np.inf
    for _ in range(3):
        with Timer() as old_timer:
            old_points, old_pids, old_pip, old_refined = refine_candidates_masks(
                point_idx, pids, is_true, index.polygons, lngs, lats
            )
        old_seconds = min(old_seconds, old_timer.seconds)

    engine = RefinementEngine(tuple(index.polygons))
    with Timer() as build_timer:
        table_bytes = engine.warm()
    engine.refine(point_idx, pids, is_true, lngs, lats)
    new_seconds = np.inf
    for _ in range(3):
        with Timer() as new_timer:
            new_points, new_pids, new_pip, new_refined = engine.refine(
                point_idx, pids, is_true, lngs, lats
            )
        new_seconds = min(new_seconds, new_timer.seconds)

    old_counts = np.bincount(old_pids, minlength=len(index.polygons))
    new_counts = np.bincount(new_pids, minlength=len(index.polygons))
    if not (
        np.array_equal(old_points, new_points)
        and np.array_equal(old_pids, new_pids)
        and np.array_equal(old_counts, new_counts)
        and old_pip == new_pip
        and old_refined == new_refined
    ):
        raise AssertionError(
            "refinement engine diverged from the mask-loop baseline"
        )

    speedup = old_seconds / new_seconds if new_seconds > 0 else 0.0
    result = ExperimentResult(
        experiment_id="refine",
        title="Refinement: vectorized engine vs per-polygon mask loop",
        headers=["refinement path", "seconds", "candidates/s", "speedup"],
    )

    def rate(seconds: float) -> str:
        return f"{num_candidates / seconds:,.0f}" if seconds > 0 else "-"

    result.add_row("per-polygon masks", f"{old_seconds:.3f}",
                   rate(old_seconds), "1.0x")
    result.add_row("engine (bucket table kernel)", f"{new_seconds:.3f}",
                   rate(new_seconds), f"{speedup:.1f}x")
    result.add_note(
        f"workload: {len(index.polygons):,} polygons, {len(lats):,} points, "
        f"{num_candidates:,} candidate pairs; counts bit-identical"
    )
    result.add_note(
        f"table assembly: {build_timer.seconds:.3f}s once per snapshot, "
        f"bucketing included ({table_bytes / 1024:,.0f} KiB packed edge buckets)"
    )
    result.add_note(
        f"refinement speedup {speedup:.1f}x"
        + (" (acceptance: >= 3x)" if config.refine_polygons >= 1000 else
           " (acceptance applies at >= 1k polygons)")
    )
    return [result]
