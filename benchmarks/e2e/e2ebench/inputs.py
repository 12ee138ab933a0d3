"""Input generation and fingerprints.

Every generator takes its randomness from the run's ``--seed``; the
program under test only ever sees the arrays produced here.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geo.polygon import Polygon

#: Gaussian offset (degrees, both axes) of ``border_points`` from the edge
#: it was drawn on: ~125-165 m in the city rectangle, a few covering cells.
BORDER_SIGMA_DEG = 0.0015


def border_points(
    polygons: Sequence[Polygon], num_points: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points scattered around polygon boundaries; returns ``(lats, lngs)``.

    An edge is picked with probability proportional to its length, a
    position uniformly along it, then a Gaussian offset is added on both
    axes.  The share of points that land in boundary cells — and with it
    PIP tests per point — is set by the geometry, not by where a seed
    happens to drop its hotspots (hotspot streams swing the refinement
    share 0.09 - 0.54 with the seed), so the refinement-bound workload
    measures the same work on every seed.
    """
    edges = [polygon.all_edges() for polygon in polygons]
    x0, y0, x1, y1 = (np.concatenate([e[k] for e in edges]) for k in range(4))
    lengths = np.hypot(x1 - x0, y1 - y0)
    rng = np.random.default_rng(seed)
    edge = rng.choice(len(lengths), size=num_points, p=lengths / lengths.sum())
    along = rng.random(num_points)
    lngs = x0[edge] + along * (x1[edge] - x0[edge])
    lats = y0[edge] + along * (y1[edge] - y0[edge])
    lngs += rng.normal(0.0, BORDER_SIGMA_DEG, num_points)
    lats += rng.normal(0.0, BORDER_SIGMA_DEG, num_points)
    return lats, lngs


def fingerprint(arrays: Iterable[np.ndarray]) -> str:
    """sha256 over the raw bytes of the arrays, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def polygon_fingerprint(polygons: Iterable[Polygon]) -> str:
    """sha256 over every polygon's edge arrays (outer ring and holes)."""
    return fingerprint(
        component for polygon in polygons for component in polygon.all_edges()
    )
