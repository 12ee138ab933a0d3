"""Tagged edge sets: flat edge arrays over several polygons.

The S2ShapeIndex-analog baseline (:mod:`repro.baselines.shape_index`)
recursively subdivides cells while tracking which polygon edges can still
intersect each subtree; so does the recursive precision descent kept as
a parity oracle in ``tests/oracles.py`` (precision refinement itself
classifies with :mod:`repro.geo.relation`).  :class:`EdgeSet` holds the
edges of several polygons in flat numpy arrays tagged with polygon ids
and answers the one query that descent needs: *which edges touch this
rectangle*.

The test is a separating-axis check: a segment intersects an axis-aligned
rectangle iff their bounding boxes overlap (x and y axes) and the
rectangle's corners do not all lie strictly on one side of the segment's
supporting line (the segment-normal axis).  Edge bounding boxes and
direction vectors are precomputed once and sliced along with subsets, so a
``touching`` call is a handful of vectorized comparisons.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geo.polygon import Polygon
from repro.geo.rect import Rect


class EdgeSet:
    """Flat edge arrays over several polygons, tagged with polygon ids."""

    __slots__ = (
        "x0", "y0", "x1", "y1", "pid", "index",
        "min_x", "max_x", "min_y", "max_y", "dx", "dy",
    )

    def __init__(self, polygons: Sequence[Polygon], polygon_ids: Sequence[int]):
        xs0, ys0, xs1, ys1, pids = [], [], [], [], []
        for pid, polygon in zip(polygon_ids, polygons):
            ex0, ey0, ex1, ey1 = polygon.all_edges()
            xs0.append(ex0)
            ys0.append(ey0)
            xs1.append(ex1)
            ys1.append(ey1)
            pids.append(np.full(len(ex0), pid, dtype=np.int64))
        if xs0:
            self.x0 = np.concatenate(xs0)
            self.y0 = np.concatenate(ys0)
            self.x1 = np.concatenate(xs1)
            self.y1 = np.concatenate(ys1)
            self.pid = np.concatenate(pids)
        else:
            self.x0 = np.zeros(0)
            self.y0 = np.zeros(0)
            self.x1 = np.zeros(0)
            self.y1 = np.zeros(0)
            self.pid = np.zeros(0, dtype=np.int64)
        #: Position of each edge in the original concatenated order, so
        #: subsets can refer back to global edge indices.
        self.index = np.arange(len(self.x0), dtype=np.int64)
        self._precompute()

    def _precompute(self) -> None:
        self.min_x = np.minimum(self.x0, self.x1)
        self.max_x = np.maximum(self.x0, self.x1)
        self.min_y = np.minimum(self.y0, self.y1)
        self.max_y = np.maximum(self.y0, self.y1)
        self.dx = self.x1 - self.x0
        self.dy = self.y1 - self.y0

    def subset(self, keep: np.ndarray) -> "EdgeSet":
        out = object.__new__(EdgeSet)
        for name in EdgeSet.__slots__:
            setattr(out, name, getattr(self, name)[keep])
        return out

    def __len__(self) -> int:
        return len(self.x0)

    def unique_pids(self) -> set[int]:
        if len(self.pid) == 0:
            return set()
        return set(np.unique(self.pid).tolist())

    def touching(self, rect: Rect) -> np.ndarray:
        """Mask of edges intersecting the closed rectangle ``rect``."""
        overlap = (
            (self.max_x >= rect.lng_lo)
            & (self.min_x <= rect.lng_hi)
            & (self.max_y >= rect.lat_lo)
            & (self.min_y <= rect.lat_hi)
        )
        if not overlap.any():
            return overlap
        # Segment-normal axis: all four rect corners strictly on one side
        # of the supporting line means no intersection.
        cross_ll = self.dx * (rect.lat_lo - self.y0) - self.dy * (rect.lng_lo - self.x0)
        cross_lr = self.dx * (rect.lat_lo - self.y0) - self.dy * (rect.lng_hi - self.x0)
        cross_ul = self.dx * (rect.lat_hi - self.y0) - self.dy * (rect.lng_lo - self.x0)
        cross_ur = self.dx * (rect.lat_hi - self.y0) - self.dy * (rect.lng_hi - self.x0)
        all_positive = (cross_ll > 0) & (cross_lr > 0) & (cross_ul > 0) & (cross_ur > 0)
        all_negative = (cross_ll < 0) & (cross_lr < 0) & (cross_ul < 0) & (cross_ur < 0)
        return overlap & ~(all_positive | all_negative)
