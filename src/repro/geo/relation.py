"""The one cell-vs-polygon classifier of the build phase.

Every build stage — the region coverer (:mod:`repro.cells.coverer`), the
precision-bound refinement (:mod:`repro.core.precision`) and index training
(:mod:`repro.core.training`) — asks the same question of a grid cell and a
polygon and gets one of three relations:

* ``DISJOINT`` — the cell cannot contain any polygon point,
* ``CONTAINED`` — the cell lies entirely in the polygon interior (a *true
  hit* cell for the paper's true hit filtering),
* ``INTERSECTS`` — anything else (a *boundary* cell).

Cells are presented here as conservative lat/lng rectangles (see
DESIGN.md §1.3 item 1).  The classification must err toward INTERSECTS:
wrongly reporting DISJOINT would lose join results, wrongly reporting
CONTAINED would fabricate them; reporting INTERSECTS too eagerly only
costs precision, never correctness.

:class:`_RectClassifier` answers it for whole arrays of rectangles against
one polygon per call — the callers batch a level of cells, not one cell.  A
rect with a ring vertex strictly inside, or an edge touching it, INTERSECTS;
otherwise it is uniform and its center's PIP test decides CONTAINED or
DISJOINT.  Edge bounding boxes are compared as a ``(rects x edges)``
broadcast; the vertex test and the segment/rect cross products run only on
the bbox-overlapping pairs, which keeps many-edge polygons cheap.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon


class Relation(enum.IntEnum):
    """Relation of a cell rectangle to a polygon (also the int8 codes)."""

    DISJOINT = 0
    INTERSECTS = 1
    CONTAINED = 2


#: Rect/edge pairs evaluated per classification chunk (bounds the broadcast
#: bbox comparison in ``_RectClassifier.relations`` to a few MiB).
_CLASSIFY_CHUNK_PAIRS = 1 << 21


class _RectClassifier:
    """Batched rect-vs-polygon relations for one polygon, over its edge
    geometry precomputed once (memoized in ``Polygon._relation_cache``)."""

    __slots__ = (
        "polygon", "mbr", "x0", "y0", "dx", "dy",
        "min_x", "max_x", "min_y", "max_y",
    )

    def __init__(self, polygon: Polygon):
        self.polygon = polygon
        self.mbr = polygon.mbr
        x0, y0, x1, y1 = polygon.all_edges()
        self.x0 = x0
        self.y0 = y0
        self.dx = x1 - x0
        self.dy = y1 - y0
        self.min_x = np.minimum(x0, x1)
        self.max_x = np.maximum(x0, x1)
        self.min_y = np.minimum(y0, y1)
        self.max_y = np.maximum(y0, y1)

    def relations(
        self,
        lng_lo: np.ndarray,
        lng_hi: np.ndarray,
        lat_lo: np.ndarray,
        lat_hi: np.ndarray,
    ) -> np.ndarray:
        """``Relation`` codes (int8) for rectangles given as coordinate arrays."""
        codes = np.zeros(len(lng_lo), dtype=np.int8)
        mbr = self.mbr
        # Rects clear of the MBR are DISJOINT outright; edge bboxes lie in
        # the MBR, so only the remaining rows enter the broadcast.
        alive = np.nonzero(
            (lng_hi >= mbr.lng_lo)
            & (lng_lo <= mbr.lng_hi)
            & (lat_hi >= mbr.lat_lo)
            & (lat_lo <= mbr.lat_hi)
        )[0]
        if alive.size == 0:
            return codes
        lo_x = lng_lo[alive]
        hi_x = lng_hi[alive]
        lo_y = lat_lo[alive]
        hi_y = lat_hi[alive]
        boundary = np.zeros(alive.size, dtype=bool)
        # Chunking cannot change results: every operation is element-wise
        # per (rect, edge) pair.
        chunk = max(1, _CLASSIFY_CHUNK_PAIRS // max(1, len(self.x0)))
        for start in range(0, alive.size, chunk):
            rows = slice(start, start + chunk)
            rect, edge = np.nonzero(
                (self.max_x[None, :] >= lo_x[rows, None])
                & (self.min_x[None, :] <= hi_x[rows, None])
                & (self.max_y[None, :] >= lo_y[rows, None])
                & (self.min_y[None, :] <= hi_y[rows, None])
            )
            rect += start
            x0 = self.x0[edge]
            y0 = self.y0[edge]
            dx = self.dx[edge]
            dy = self.dy[edge]
            rel_lo_x = lo_x[rect] - x0
            rel_hi_x = hi_x[rect] - x0
            rel_lo_y = lo_y[rect] - y0
            rel_hi_y = hi_y[rect] - y0
            # Every ring vertex starts exactly one edge, so the edge starts
            # are the vertex set; a vertex strictly inside a rect means the
            # boundary enters it (and its edge's bbox overlaps the rect, so
            # the pair is in this selection).
            vertex_inside = (rel_lo_x < 0) & (rel_hi_x > 0) & (rel_lo_y < 0) & (rel_hi_y > 0)
            # Segment-normal axis: all four rect corners strictly on one
            # side of the supporting line means no intersection.
            cross_ll = dx * rel_lo_y - dy * rel_lo_x
            cross_lr = dx * rel_lo_y - dy * rel_hi_x
            cross_ul = dx * rel_hi_y - dy * rel_lo_x
            cross_ur = dx * rel_hi_y - dy * rel_hi_x
            one_sided = (
                (cross_ll > 0) & (cross_lr > 0) & (cross_ul > 0) & (cross_ur > 0)
            ) | (
                (cross_ll < 0) & (cross_lr < 0) & (cross_ul < 0) & (cross_ur < 0)
            )
            boundary[rect[vertex_inside | ~one_sided]] = True
        codes[alive[boundary]] = Relation.INTERSECTS
        uniform = alive[~boundary]
        if uniform.size:
            # No boundary contact: wholly inside or wholly outside; decide
            # by the rect center (vectorized over the surviving rects).
            centers_lng = (lng_lo[uniform] + lng_hi[uniform]) / 2.0
            centers_lat = (lat_lo[uniform] + lat_hi[uniform]) / 2.0
            inside = contains_points(self.polygon, centers_lng, centers_lat)
            codes[uniform[inside]] = Relation.CONTAINED
        return codes


def _rect_classifier(polygon: Polygon) -> _RectClassifier:
    classifier = polygon._relation_cache
    if classifier is None:
        classifier = _RectClassifier(polygon)
        polygon._relation_cache = classifier
    return classifier


def relations_for_pairs(
    polygons: Sequence[Polygon | None],
    rects: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    rect_index: np.ndarray,
    polygon_ids: np.ndarray,
) -> np.ndarray:
    """``Relation`` codes of ``(rects[rect_index[k]], polygon_ids[k])`` pairs.

    One classifier call per distinct polygon, whatever the pair order.
    """
    codes = np.empty(len(polygon_ids), dtype=np.int8)
    order = np.argsort(polygon_ids, kind="stable")
    cuts = np.flatnonzero(np.diff(polygon_ids[order])) + 1
    for group in np.split(order, cuts):
        if group.size:
            rows = rect_index[group]
            classifier = _rect_classifier(polygons[int(polygon_ids[group[0]])])
            codes[group] = classifier.relations(*(bound[rows] for bound in rects))
    return codes
