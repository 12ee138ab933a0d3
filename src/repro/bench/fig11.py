"""Figure 11: ACT4 (multi-threaded) versus the GPU raster joins.

The paper compares 16-thread ACT4 on a c5.4xlarge against Bounded Raster
Join (15 m / 4 m) and Accurate Raster Join (exact) on a g3s.xlarge GPU.
Here both sides run on the CPU (DESIGN.md §1.3 item 5): ACT4 uses the
thread-parallel probe, the raster join uses its tile/multi-pass pipeline —
the precision/polygon-count sensitivities survive the substitution.
"""

from __future__ import annotations

import os

from repro.baselines import RasterJoin
from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, Workbench
from repro.core.joins import parallel_count_join
from repro.util.timing import Timer, throughput_mpts


def run(workbench: Workbench) -> list[ExperimentResult]:
    config = workbench.config
    threads = min(16, os.cpu_count() or 1)
    result = ExperimentResult(
        experiment_id="fig11",
        title=f"Figure 11: ACT4 ({threads} threads) vs GPU raster joins (taxi points)",
        headers=["dataset", "mode", "algorithm", "throughput [M points/s]", "passes"],
    )
    lats, lngs, ids = workbench.taxi()
    precisions = [p for p in config.precisions if p != max(config.precisions)] or list(
        config.precisions
    )
    for name in POLYGON_DATASET_NAMES:
        polygons = workbench.polygons(name)
        for precision in precisions:
            store = workbench.store(name, precision, "ACT4")
            with Timer() as timer:
                parallel_count_join(store, ids, len(polygons), num_threads=threads)
            result.add_row(
                name,
                f"{precision:g} m",
                "ACT4",
                round(throughput_mpts(len(ids), timer.seconds), 2),
                1,
            )
            raster = RasterJoin(
                polygons, precision_meters=precision, max_texture=config.max_texture
            )
            with Timer() as timer:
                raster.join(lngs, lats)
            result.add_row(
                name,
                f"{precision:g} m",
                "BRJ",
                round(throughput_mpts(len(ids), timer.seconds), 2),
                raster.num_passes,
            )
        # Exact: accurate ACT4 (coarse covering) vs ARJ.
        store = workbench.store(name, None, "ACT4")
        with Timer() as timer:
            parallel_count_join(
                store,
                ids,
                len(polygons),
                num_threads=threads,
                polygons=polygons,
                lngs=lngs,
                lats=lats,
            )
        result.add_row(
            name,
            "exact",
            "ACT4",
            round(throughput_mpts(len(ids), timer.seconds), 2),
            1,
        )
        raster = RasterJoin(polygons, precision_meters=None, max_texture=config.max_texture)
        with Timer() as timer:
            raster.join(lngs, lats)
        result.add_row(
            name,
            "exact",
            "ARJ",
            round(throughput_mpts(len(ids), timer.seconds), 2),
            raster.num_passes,
        )
    result.add_note("per-pass polygon re-rendering is excluded, favoring BRJ "
                    "(DESIGN.md §1.3 item 5)")
    return [result]
