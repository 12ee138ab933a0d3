"""Tables 6 and 7: effect of training the index with historical points.

Training points model the paper's 2009 taxi data (same spatial process,
separate draw); query points model 2010-2016.  Table 6 reports accurate-
join speedups of the trained over the untrained ACT4; Table 7 reports the
solely-true-hits (STH) percentage before and after training with the
largest training-set size.
"""

from __future__ import annotations

from repro.bench.measure import exact_throughput_mpts, mib
from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, Workbench
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.act import AdaptiveCellTrie
from repro.core.training import train_super_covering
from repro.datasets import taxi_points
from repro.util.timing import Timer


def _run_both(workbench: Workbench) -> tuple[ExperimentResult, ExperimentResult]:
    config = workbench.config
    table6 = ExperimentResult(
        experiment_id="table6",
        title="Table 6: accurate-join speedup from training ACT4 with historical points",
        headers=[
            "dataset",
            "training points",
            "train [s]",
            "throughput [M points/s]",
            "speedup",
            "ACT4 size [MiB]",
            "PIP tests/point",
        ],
    )
    table7 = ExperimentResult(
        experiment_id="table7",
        title="Table 7: solely true hits (STH) before and after training",
        headers=["dataset", "STH untrained [%]", "STH trained [%]"],
    )
    # Historical (2009-analog) points: same process, different draw.
    train_lats, train_lngs = taxi_points(
        max(config.training_points), seed=config.seed + 1000
    )
    train_ids = cell_ids_from_lat_lng_arrays(train_lats, train_lngs)
    query_lats, query_lngs, query_ids = workbench.taxi()

    for name in POLYGON_DATASET_NAMES:
        polygons = workbench.polygons(name)
        base, _ = workbench.base_covering(name)
        untrained_store = workbench.store(name, None, "ACT4")
        base_mpts, base_join = exact_throughput_mpts(
            untrained_store,
            query_ids,
            polygons,
            query_lngs,
            query_lats,
        )
        table6.add_row(
            name,
            0,
            0.0,
            round(base_mpts, 3),
            "1.00x",
            round(mib(untrained_store.size_bytes), 2),
            round(base_join.num_pip_tests / len(query_ids), 4),
        )
        trained_sth = base_join.sth_rate
        for num_train in config.training_points:
            covering = base.copy()
            with Timer() as train_timer:
                train_super_covering(covering, polygons, train_ids[:num_train])
            store = AdaptiveCellTrie(covering, 8)
            mpts, join = exact_throughput_mpts(
                store, query_ids, polygons, query_lngs, query_lats
            )
            table6.add_row(
                name,
                num_train,
                round(train_timer.seconds, 2),
                round(mpts, 3),
                f"{mpts / base_mpts:.2f}x",
                round(mib(store.size_bytes), 2),
                round(join.num_pip_tests / len(query_ids), 4),
            )
            trained_sth = join.sth_rate
        table7.add_row(
            name,
            round(base_join.sth_rate * 100.0, 1),
            round(trained_sth * 100.0, 1),
        )
    table7.add_note(
        f"trained with {max(config.training_points)} historical points (paper: 1 M)"
    )
    return table6, table7


_CACHE: dict[int, tuple[ExperimentResult, ExperimentResult]] = {}


def run_table6(workbench: Workbench) -> list[ExperimentResult]:
    key = id(workbench)
    if key not in _CACHE:
        _CACHE[key] = _run_both(workbench)
    return [_CACHE[key][0]]


def run_table7(workbench: Workbench) -> list[ExperimentResult]:
    key = id(workbench)
    if key not in _CACHE:
        _CACHE[key] = _run_both(workbench)
    return [_CACHE[key][1]]
