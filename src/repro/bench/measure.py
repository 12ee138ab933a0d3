"""Shared measurement helpers for the experiment runners."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.joins import accurate_join, approximate_join
from repro.geo.polygon import Polygon
from repro.util.timing import Timer, throughput_mpts


def probe_throughput_mpts(
    store, cell_ids: np.ndarray, num_polygons: int, *, warmup: int = 65536
) -> float:
    """Single-threaded approximate-join throughput in M points/s."""
    approximate_join(store, cell_ids[:warmup], num_polygons)
    with Timer() as timer:
        approximate_join(store, cell_ids, num_polygons)
    return throughput_mpts(len(cell_ids), timer.seconds)


def exact_throughput_mpts(
    store,
    cell_ids: np.ndarray,
    polygons: Sequence[Polygon],
    lngs: np.ndarray,
    lats: np.ndarray,
    *,
    warmup: int = 65536,
) -> tuple[float, "object"]:
    """Single-threaded accurate-join throughput plus the JoinResult."""
    accurate_join(store, cell_ids[:warmup], polygons, lngs[:warmup], lats[:warmup])
    with Timer() as timer:
        result = accurate_join(store, cell_ids, polygons, lngs, lats)
    return throughput_mpts(len(cell_ids), timer.seconds), result


def mib(num_bytes: int) -> float:
    return num_bytes / (1024.0 * 1024.0)
