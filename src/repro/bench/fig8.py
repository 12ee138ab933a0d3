"""Figure 8: single-threaded throughput with uniform synthetic points."""

from __future__ import annotations

from repro.bench.measure import probe_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, STORE_FACTORIES, Workbench


def run(workbench: Workbench) -> list[ExperimentResult]:
    precision = min(workbench.config.precisions)
    result = ExperimentResult(
        experiment_id="fig8",
        title=f"Figure 8: single-threaded throughput, uniform points ({precision:g} m)",
        headers=["dataset", "index", "throughput [M points/s]"],
    )
    for name in POLYGON_DATASET_NAMES:
        num_polygons = len(workbench.polygons(name))
        _, _, ids = workbench.uniform(name)
        for kind in STORE_FACTORIES:
            store = workbench.store(name, precision, kind)
            mpts = probe_throughput_mpts(store, ids, num_polygons)
            result.add_row(name, kind, round(mpts, 2))
    return [result]
