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

:func:`relations_for_pairs` answers it for a whole round at once: every
``(rect, polygon)`` pair of the round, whatever the polygons, in one pass
over a :class:`RelationTable`.  A rect clear of its polygon's MBR is
DISJOINT.  A rect that an edge touches INTERSECTS; otherwise it is uniform
and its center's PIP test decides CONTAINED or DISJOINT.

**Latitude buckets.**  A rect only meets the edges whose latitude range
overlaps its own, so the table packs each polygon's edges — horizontal
ones included — into uniform latitude buckets through refinement's
monotone :func:`repro.geo.refine._bucket_index` (the idea of Kipf et
al.'s *Adaptive Geospatial Joins for Modern Hardware*).  An edge whose
bounding box overlaps a rect shares a latitude with it, and that latitude
falls in one bucket of the edge's and one of the rect's; so the edges
that start in one of the rect's buckets, plus those that enter its lowest
bucket from below, are all the rect needs — two contiguous slot runs,
each edge at most once.  The segment/rect cross products run only on the
bbox-overlapping ``(rect, edge)`` pairs.  Pairs and their expanded slots
are evaluated in fixed-size chunks, so memory does not grow with the
round.

**Uniform rects** are decided by one multi-polygon PIP call through
:class:`repro.geo.refine._FlatBucketTable`, which reproduces
:func:`repro.geo.pip.contains_points` bit for bit.  The codes are those
of classifying each polygon's rects against all its edges, code for code
(``tests/oracles.py::RectClassifier`` is that per-polygon broadcast).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.geo.polygon import Polygon
from repro.geo.refine import _MAX_BUCKETS, _bucket_index, _FlatBucketTable


class Relation(enum.IntEnum):
    """Relation of a cell rectangle to a polygon (also the int8 codes)."""

    DISJOINT = 0
    INTERSECTS = 1
    CONTAINED = 2


#: ``(rect, polygon)`` pairs, and expanded ``(rect, edge slot)`` pairs,
#: evaluated per chunk: bound the pass's temporaries to a few MiB whatever
#: the round size.
_CHUNK_PAIRS = 1 << 13
_CHUNK_SLOTS = 1 << 15

#: A rect ``(lng_lo, lng_hi, lat_lo, lat_hi)`` times these is its *folded*
#: form ``(lng_lo, -lng_hi, lat_lo, -lat_hi)``: every overlap test is then
#: one ``<=`` against a folded bound (negation is exact, so each row
#: compares exactly as the unfolded inequality does).
_FOLD = np.array([[1.0], [-1.0], [1.0], [-1.0]])
#: Rows of the corner offsets ``(lo_x, hi_x, lo_y, hi_y) - (x0, x0, y0,
#: y0)`` holding the x and the y of corners ``ll, lr, ul, ur``.
_CORNER_X = np.array([0, 1, 0, 1])
_CORNER_Y = np.array([2, 2, 3, 3])


class RelationTable:
    """Every edge of a polygon sequence, packed for :func:`relations_for_pairs`.

    Bucket row ``r = row_offset[q] + b`` is bucket ``b`` of table row ``q``.
    The slot columns hold every edge once, ordered by the row of its lowest
    bucket (*start* slots: row ``r`` owns ``row_start[r]:row_start[r +
    1]``), then, per row, the edges that enter it from a lower bucket
    (*through* slots: ``row_start[R + 1 + r]:row_start[R + 2 + r]`` for
    ``R`` rows).  A rect spanning buckets ``lo..hi`` meets exactly the
    edges starting in rows ``lo..hi`` — one slot run — and those passing
    through row ``lo`` — another — each edge once.  Given ``ids``, only
    those polygons are packed (pairs still name a polygon by its index
    into ``polygons``).
    """

    def __init__(self, polygons: Sequence[Polygon], ids: np.ndarray | None = None):
        if ids is not None:
            ids = np.unique(np.asarray(ids, dtype=np.int64))
            polygons = [polygons[pid] for pid in ids.tolist()]
        self._ids = ids
        self._polygons = list(polygons)
        num = len(self._polygons)
        #: Folded MBRs ``(lng_hi, -lng_lo, lat_hi, -lat_lo)``: a folded
        #: rect ``<=`` them on every row overlaps the MBR.
        self.mbr = np.array(
            [(p.mbr.lng_hi, -p.mbr.lng_lo, p.mbr.lat_hi, -p.mbr.lat_lo) for p in self._polygons],
            dtype=np.float64,
        ).reshape(num, 4).T
        parts = [polygon.all_edges() for polygon in self._polygons]
        counts = np.asarray([len(part[0]) for part in parts], dtype=np.int64)
        x0, y0, x1, y1 = (
            np.concatenate([np.zeros(0)] + [part[k] for part in parts]) for k in range(4)
        )
        lo = np.minimum(y0, y1)
        hi = np.maximum(y0, y1)
        # Per-polygon bucket geometry: origin at the lowest edge latitude,
        # one bucket per edge up to refinement's cap.  A polygon whose
        # edges share one latitude gets a single bucket.
        edge_start = counts.cumsum() - counts
        origin = np.minimum.reduceat(lo, edge_start)
        span = np.maximum.reduceat(hi, edge_start) - origin
        num_buckets = np.minimum(counts, _MAX_BUCKETS)
        num_buckets[span == 0.0] = 1
        inv_height = num_buckets / np.where(span == 0.0, np.inf, span)
        #: Per table row: ``(lat_origin, inv_bucket_height, num_buckets)``
        #: for ``_bucket_index``, and its first bucket row.
        self.buckets = np.array([origin, inv_height, num_buckets])
        self.row_offset = num_buckets.cumsum() - num_buckets
        num_rows = int(num_buckets.sum())
        owner = np.arange(num, dtype=np.int64).repeat(counts)
        first, last = _bucket_index(
            np.array([lo, hi]), origin[owner], inv_height[owner], num_buckets[owner]
        )
        first += self.row_offset[owner]
        last += self.row_offset[owner]
        # Edge e passes through rows first[e] + 1 .. last[e].
        passes = last - first
        through = (first + 1 - (passes.cumsum() - passes)).repeat(passes)
        through += np.arange(len(through), dtype=np.int64)
        self.row_start = np.zeros(2 * (num_rows + 1), dtype=np.int64)
        np.cumsum(np.bincount(first, minlength=num_rows), out=self.row_start[1:num_rows + 1])
        np.cumsum(
            np.bincount(through, minlength=num_rows), out=self.row_start[num_rows + 2:]
        )
        self.row_start[num_rows + 1:] += len(x0)
        slot_edge = np.concatenate([
            np.argsort(first, kind="stable"),
            np.arange(len(x0), dtype=np.int64).repeat(passes)[
                np.argsort(through, kind="stable")
            ],
        ])
        # Slot columns: the folded bbox ``(max_x, -min_x, max_y, -min_y)``
        # (tested on every slot) and the segment ``(x0, x0, y0, y0, dx,
        # dy)`` (gathered for the bbox survivors only).
        self.bbox = np.array(
            [np.maximum(x0, x1), -np.minimum(x0, x1), hi, -lo]
        ).take(slot_edge, axis=1)
        self.segment = np.array(
            [x0, x0, y0, y0, x1 - x0, y1 - y0]
        ).take(slot_edge, axis=1)
        self._pip: _FlatBucketTable | None = None

    def rows(self, polygon_ids: np.ndarray) -> np.ndarray:
        """Table rows of polygon ids (indices into the ``polygons`` given)."""
        polygon_ids = np.asarray(polygon_ids, dtype=np.int64)
        if self._ids is None:
            return polygon_ids
        return np.searchsorted(self._ids, polygon_ids)

    def pip(self) -> _FlatBucketTable:
        """The PIP table of the packed polygons (assembled on first use)."""
        if self._pip is None:
            self._pip = _FlatBucketTable(self._polygons)
        return self._pip


def relations_for_pairs(
    table: RelationTable,
    rects: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    rect_index: np.ndarray,
    polygon_ids: np.ndarray,
) -> np.ndarray:
    """``Relation`` codes (int8) of ``(rects[rect_index[k]], polygon_ids[k])``.

    ``rects`` is ``(lng_lo, lng_hi, lat_lo, lat_hi)``; one pass decides
    every pair, whatever the polygons and the pair order.
    """
    codes = np.zeros(len(polygon_ids), dtype=np.int8)
    folded = np.asarray(rects, dtype=np.float64).reshape(4, -1) * _FOLD
    rect_index = np.asarray(rect_index, dtype=np.int64)
    q = table.rows(polygon_ids)
    for start in range(0, len(codes), _CHUNK_PAIRS):
        rows = slice(start, start + _CHUNK_PAIRS)
        _classify_chunk(table, folded.take(rect_index[rows], axis=1), q[rows], codes[rows])
    return codes


def _classify_chunk(
    table: RelationTable, rects: np.ndarray, q: np.ndarray, codes: np.ndarray
) -> None:
    """Codes of one chunk of pairs — folded rects, table rows ``q`` —
    written to ``codes``."""
    # Rects clear of the MBR are DISJOINT outright; every edge lies in it.
    alive = (rects <= table.mbr.take(q, axis=1)).all(axis=0).nonzero()[0]
    if alive.size == 0:
        return
    q = q.take(alive)
    rects = rects.take(alive, axis=1)
    # The rect's bucket rows lo..hi: two slot runs per pair, the edges
    # passing through row lo and the edges starting in rows lo..hi.
    origin, inv_height, num_buckets = table.buckets.take(q, axis=1)
    lat_lo = rects[2]
    lat_hi = -rects[3]
    # Ordered, so an inverted rect meets the edges spanning its range, as
    # the bbox test does.
    rows = _bucket_index(
        np.array([np.minimum(lat_lo, lat_hi), np.maximum(lat_lo, lat_hi)]),
        origin, inv_height, num_buckets,
    )
    rows += table.row_offset.take(q)
    through = rows[0] + (len(table.row_start) // 2)
    bounds = table.row_start.take(np.array([through, through + 1, rows[0], rows[1] + 1]))
    starts = bounds[::2].T.ravel()
    lens = bounds[1::2].T.ravel() - starts
    boundary = np.zeros(alive.size, dtype=bool)
    ends = lens.cumsum()
    total = int(ends[-1])
    for lo in range(0, total, _CHUNK_SLOTS):
        _boundary_chunk(
            table, lo, min(lo + _CHUNK_SLOTS, total), starts, lens, ends, rects, boundary
        )
    codes[alive[boundary]] = Relation.INTERSECTS
    uniform = (~boundary).nonzero()[0]
    if uniform.size:
        # No boundary contact: wholly inside or wholly outside; decide by
        # the rect centers, every polygon in one call.
        lng_lo, lng_hi, lat_lo, lat_hi = rects.take(uniform, axis=1) * _FOLD
        inside = table.pip().test(
            q.take(uniform), (lng_lo + lng_hi) / 2.0, (lat_lo + lat_hi) / 2.0
        )
        codes[alive.take(uniform[inside])] = Relation.CONTAINED


def _boundary_chunk(
    table: RelationTable,
    lo: int,
    hi: int,
    starts: np.ndarray,
    lens: np.ndarray,
    ends: np.ndarray,
    rects: np.ndarray,
    boundary: np.ndarray,
) -> None:
    """Flag the pairs owning a boundary-touching slot among expanded
    positions ``[lo, hi)`` of the slot runs (two per pair; a chunk edge
    may cut a run)."""
    if lo == 0 and hi == ends[-1]:
        head, run_starts, run_lens = 0, starts, lens  # one chunk: no cuts
    else:
        head = int(ends.searchsorted(lo, side="right"))
        tail = int(ends.searchsorted(hi, side="left")) + 1
        run_starts = starts[head:tail].copy()
        run_lens = lens[head:tail].copy()
        cut = lo - int(ends[head] - lens[head])
        run_starts[0] += cut
        run_lens[0] -= cut
        run_lens[-1] -= int(ends[tail - 1]) - hi
    offsets = run_lens.cumsum() - run_lens
    slot = (run_starts - offsets).repeat(run_lens)
    slot += np.arange(hi - lo, dtype=np.int64)
    pair = (np.arange(head, head + len(run_lens), dtype=np.int64) >> 1).repeat(run_lens)
    touch = (
        (rects.take(pair, axis=1) <= table.bbox.take(slot, axis=1)).all(axis=0).nonzero()[0]
    )
    if touch.size == 0:
        return
    pair = pair.take(touch)
    segment = table.segment.take(slot.take(touch), axis=1)
    # Corner offsets from the edge start: (lo_x, hi_x, lo_y, hi_y) - x0/y0.
    rel = rects.take(pair, axis=1) * _FOLD - segment[:4]
    # Segment-normal axis: all four rect corners strictly on one side of
    # the supporting line means no intersection.  A ring vertex strictly
    # inside the rect (the boundary enters it) needs no test of its own:
    # it starts an edge, and whatever that edge's direction, two opposite
    # corners around the vertex give cross products of opposite signs (or
    # zero), so the pair is never one-sided.
    dx, dy = segment[4:]
    cross = dx * rel.take(_CORNER_Y, axis=0) - dy * rel.take(_CORNER_X, axis=0)
    one_sided = (cross > 0).all(axis=0) | (cross < 0).all(axis=0)
    boundary[pair[~one_sided]] = True
