"""Table 5: per-point cost counters (neighborhoods, finest precision).

The paper reads hardware performance counters (cycles, instructions,
branch misses, cache misses).  Python cannot read PMUs portably, so we
report the *structural* counters those numbers measure — node accesses,
key comparisons, and touched cache lines per probe — plus the measured
wall-clock nanoseconds per point (the cycles analog).  See DESIGN.md
§1.3 item 3.
"""

from __future__ import annotations

import math

from repro.bench.measure import probe_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import STORE_FACTORIES, Workbench
from repro.core.act import AdaptiveCellTrie


def _structural_counters(store, ids) -> tuple[float, float, float]:
    """(node accesses, key comparisons, cache lines) per probe."""
    if isinstance(store, AdaptiveCellTrie):
        _, stats = store.probe_instrumented(ids)
        depth = stats.avg_depth
        # One slot gather per node (one cache line), no key comparisons
        # (the tag check is not a key comparison).
        return depth, 0.0, depth
    if hasattr(store, "node_accesses_per_probe"):  # B-tree
        return (
            float(store.node_accesses_per_probe()),
            store.comparisons_per_probe(),
            store.cache_lines_per_probe(),
        )
    # Sorted vector: binary search touches ~log2(n) scattered lines.
    comparisons = store.comparisons_per_probe()
    return comparisons, comparisons, comparisons


def run(workbench: Workbench) -> list[ExperimentResult]:
    precision = min(workbench.config.precisions)
    result = ExperimentResult(
        experiment_id="table5",
        title=f"Table 5: per-point probe counters (neighborhoods, {precision:g} m)",
        headers=[
            "points",
            "index",
            "ns/point (measured)",
            "node accesses",
            "key comparisons",
            "cache lines",
        ],
    )
    num_polygons = len(workbench.polygons("neighborhoods"))
    for points_name in ("uniform", "taxi"):
        if points_name == "uniform":
            _, _, ids = workbench.uniform("neighborhoods")
        else:
            _, _, ids = workbench.taxi()
        for kind in STORE_FACTORIES:
            store = workbench.store("neighborhoods", precision, kind)
            mpts = probe_throughput_mpts(store, ids, num_polygons)
            ns_per_point = 1000.0 / mpts if mpts > 0 else math.inf
            accesses, comparisons, lines = _structural_counters(store, ids)
            result.add_row(
                points_name,
                kind,
                round(ns_per_point, 1),
                round(accesses, 2),
                round(comparisons, 2),
                round(lines, 2),
            )
    result.add_note("hardware PMU counters are not reachable from Python; "
                    "structural counters substitute (DESIGN.md §1.3)")
    return [result]
