"""Figure 7: approximate-join throughput and scalability (taxi points).

Left: single-threaded throughput per data structure at the finest
precision.  Middle: throughput per precision (neighborhoods).  Right:
multi-threaded speedup (neighborhoods, finest precision).
"""

from __future__ import annotations

import os

from repro.bench.measure import probe_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, STORE_FACTORIES, Workbench
from repro.core.joins import parallel_count_join
from repro.util.timing import Timer, throughput_mpts


def run_left(workbench: Workbench) -> ExperimentResult:
    precision = min(workbench.config.precisions)
    result = ExperimentResult(
        experiment_id="fig7_left",
        title=f"Figure 7 (left): single-threaded throughput, taxi points, {precision:g} m",
        headers=["dataset", "index", "throughput [M points/s]"],
    )
    _, _, ids = workbench.taxi()
    for name in POLYGON_DATASET_NAMES:
        num_polygons = len(workbench.polygons(name))
        for kind in STORE_FACTORIES:
            store = workbench.store(name, precision, kind)
            mpts = probe_throughput_mpts(store, ids, num_polygons)
            result.add_row(name, kind, round(mpts, 2))
    return result


def run_middle(workbench: Workbench) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig7_middle",
        title="Figure 7 (middle): throughput per precision (neighborhoods, taxi points)",
        headers=["precision [m]", "index", "throughput [M points/s]"],
    )
    _, _, ids = workbench.taxi()
    num_polygons = len(workbench.polygons("neighborhoods"))
    for precision in workbench.config.precisions:
        for kind in STORE_FACTORIES:
            store = workbench.store("neighborhoods", precision, kind)
            mpts = probe_throughput_mpts(store, ids, num_polygons)
            result.add_row(f"{precision:g}", kind, round(mpts, 2))
    return result


def run_right(workbench: Workbench) -> ExperimentResult:
    precision = min(workbench.config.precisions)
    hardware = os.cpu_count() or 1
    result = ExperimentResult(
        experiment_id="fig7_right",
        title=f"Figure 7 (right): multi-threaded speedup (neighborhoods, {precision:g} m)",
        headers=["index", "threads", "throughput [M points/s]", "speedup"],
    )
    result.add_note(
        f"this machine exposes {hardware} hardware threads (paper: 28); "
        "results/paper/<preset>/RUN.txt records the host of each checked-in run"
    )
    _, _, ids = workbench.taxi()
    num_polygons = len(workbench.polygons("neighborhoods"))
    for kind in STORE_FACTORIES:
        store = workbench.store("neighborhoods", precision, kind)
        base_mpts = None
        for threads in workbench.config.threads:
            with Timer() as timer:
                parallel_count_join(store, ids, num_polygons, num_threads=threads)
            mpts = throughput_mpts(len(ids), timer.seconds)
            if base_mpts is None:
                base_mpts = mpts
            result.add_row(
                kind, threads, round(mpts, 2), round(mpts / base_mpts, 2)
            )
    return result


def run(workbench: Workbench) -> list[ExperimentResult]:
    return [run_left(workbench), run_middle(workbench), run_right(workbench)]
