"""Figure 9: Twitter-analog city datasets, throughput per precision.

Four cities with their paper polygon counts (NYC 289, SF 117, LA 160,
BOS 42) and point sets scaled to the paper's relative sizes.
"""

from __future__ import annotations

from repro.bench.measure import probe_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import STORE_FACTORIES, Workbench
from repro.datasets import TWITTER_CITIES


def run(workbench: Workbench) -> list[ExperimentResult]:
    result = ExperimentResult(
        experiment_id="fig9",
        title="Figure 9: single-threaded throughput on Twitter-analog datasets",
        headers=["city (# polygons)", "precision [m]", "index", "throughput [M points/s]"],
    )
    for city, (polygon_count, _) in TWITTER_CITIES.items():
        dataset = f"twitter:{city}"
        num_polygons = len(workbench.polygons(dataset))
        _, _, ids = workbench.twitter(city)
        for precision in workbench.config.precisions:
            for kind in STORE_FACTORIES:
                store = workbench.store(dataset, precision, kind)
                mpts = probe_throughput_mpts(store, ids, num_polygons)
                result.add_row(
                    f"{city} ({polygon_count})", f"{precision:g}", kind, round(mpts, 2)
                )
    return [result]
