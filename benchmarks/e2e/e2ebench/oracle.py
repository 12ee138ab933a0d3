"""Correctness oracle: brute-force point-in-polygon, outside timed regions.

Each check returns ``None`` when the join result is right and a one-line
description of the first discrepancy otherwise.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.joins import JoinResult
from repro.geo.distance import polygon_distance_meters
from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon


def containment_matrix(
    polygons: Sequence[Polygon | None], lats: np.ndarray, lngs: np.ndarray
) -> np.ndarray:
    """``inside[pid, point]`` by brute-force PIP (dead slots stay False)."""
    inside = np.zeros((len(polygons), len(lats)), dtype=bool)
    for pid, polygon in enumerate(polygons):
        if polygon is not None:
            inside[pid] = contains_points(polygon, lngs, lats)
    return inside


def check_exact(
    result: JoinResult,
    polygons: Sequence[Polygon | None],
    lats: np.ndarray,
    lngs: np.ndarray,
) -> str | None:
    """An accurate join's counts must equal brute-force counts."""
    expected = containment_matrix(polygons, lats, lngs).sum(axis=1)
    if len(result.counts) != len(expected):
        return f"counts has {len(result.counts)} slots, expected {len(expected)}"
    wrong = np.nonzero(result.counts != expected)[0]
    if wrong.size:
        pid = int(wrong[0])
        return (
            f"polygon {pid}: joined {int(result.counts[pid])} points, "
            f"brute force {int(expected[pid])} ({wrong.size} polygons differ)"
        )
    return None


def check_approximate(
    result: JoinResult,
    materialized: JoinResult,
    polygons: Sequence[Polygon | None],
    lats: np.ndarray,
    lngs: np.ndarray,
    precision_meters: float,
) -> str | None:
    """An approximate join may only err within the precision bound.

    ``materialized`` is the same batch joined again through the same
    entry point with ``materialize=True`` (the timed op returns counts
    only); its counts must match, it must report every true pair, and
    every pair it reports beyond those must lie within
    ``precision_meters`` of its polygon.
    """
    if not np.array_equal(result.counts, materialized.counts):
        return "materialized re-run disagrees with the timed op's counts"
    inside = containment_matrix(polygons, lats, lngs)
    reported = np.zeros_like(inside)
    reported[materialized.pair_polygons, materialized.pair_points] = True
    missed = inside & ~reported
    if missed.any():
        pid, point = (int(v[0]) for v in np.nonzero(missed))
        return (
            f"false negative: point {point} is inside polygon {pid} "
            f"({int(missed.sum())} pairs missed)"
        )
    for pid, point in zip(*np.nonzero(reported & ~inside)):
        distance = polygon_distance_meters(
            polygons[pid], float(lngs[point]), float(lats[point])
        )
        if distance > precision_meters:
            return (
                f"false positive beyond the bound: point {int(point)} is "
                f"{distance:.1f} m from polygon {int(pid)} "
                f"(bound {precision_meters} m)"
            )
    return None
