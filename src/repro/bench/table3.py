"""Table 3: lookup speedups of coarser over finer polygon datasets.

Derived from the Figure 7 (left) measurements: the ratio of a structure's
throughput on a coarse dataset (boroughs) over a finer one (census) shows
how much each structure benefits from large cells being indexed near the
root — ACT's advantage, which B-trees and sorted vectors lack.
"""

from __future__ import annotations

from repro.bench.measure import probe_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, STORE_FACTORIES, Workbench


def run(workbench: Workbench) -> list[ExperimentResult]:
    precision = min(workbench.config.precisions)
    result = ExperimentResult(
        experiment_id="table3",
        title="Table 3: speedups of coarser over finer polygon datasets "
        f"(taxi points, {precision:g} m)",
        headers=["index", "b over n", "b over c", "n over c"],
    )
    _, _, ids = workbench.taxi()
    throughput: dict[tuple[str, str], float] = {}
    for name in POLYGON_DATASET_NAMES:
        num_polygons = len(workbench.polygons(name))
        for kind in STORE_FACTORIES:
            store = workbench.store(name, precision, kind)
            throughput[(name, kind)] = probe_throughput_mpts(store, ids, num_polygons)
    for kind in STORE_FACTORIES:
        b = throughput[("boroughs", kind)]
        n = throughput[("neighborhoods", kind)]
        c = throughput[("census", kind)]
        result.add_row(
            kind,
            f"{b / n:.2f}x",
            f"{b / c:.2f}x",
            f"{n / c:.2f}x",
        )
    return [result]
