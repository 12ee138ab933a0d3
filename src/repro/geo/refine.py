"""The refinement engine: one bucketed edge layout, one crossing kernel.

The accurate join spends its non-probe time PIP-testing candidate pairs.
Two independent costs dominate a naive implementation:

* **grouping** — finding each polygon's candidate points with one boolean
  mask per polygon is O(unique polygons x candidates); on many-polygon
  workloads the mask scans dwarf the PIP tests themselves;
* **testing** — the ray-crossing test is linear in the polygon's edge
  count, although only edges whose latitude interval contains the query
  latitude can ever cross the ray.

The latitude-interval idea of Kipf et al.'s *Adaptive Geospatial Joins
for Modern Hardware* removes the second cost: a polygon's non-horizontal
edges are packed into uniform latitude buckets (an edge appears in every
bucket its latitude interval overlaps), and a point only tests the edges
of its own bucket.  :class:`_FlatBucketTable` removes the first: it
concatenates every polygon's buckets into one ragged (CSR) edge table,
maps each ``(polygon, point)`` pair to its bucket row arithmetically, and
decides a whole candidate array — one pair or a million — with one
``repeat``/``bincount`` crossing kernel and no per-polygon dispatch.
That table is the only refinement layout and its chunk kernel the only
crossing kernel besides the brute-force reference
:func:`repro.geo.pip.contains_points`, which it reproduces bit for bit:
the crossing rule, the interpolation arithmetic, and the MBR filter are
identical, and an edge excluded by its bucket can never satisfy the
crossing rule for the excluded latitudes.

A polygon's packed bucket rows are memoized on the
:class:`~repro.geo.polygon.Polygon` object itself, and a table is the
concatenation of its polygons' rows — so every snapshot, overlay view,
and compaction that shares polygon instances assembles its table with
one concatenate and never re-buckets a surviving polygon; a polygon
restored from serialization simply re-packs its rows on first use (or
never, when its engine adopts a snapshot's packed ``ref_*`` table).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.geo.polygon import Polygon

#: Expanded pair x edge slots evaluated per vectorized chunk (bounds
#: temporaries), matching :data:`repro.geo.pip._CHUNK_PAIRS`.
_CHUNK_PAIRS = 4_000_000

#: Bucket-count heuristic: aim for this many edges per latitude bucket.
_TARGET_EDGES_PER_BUCKET = 4

#: Upper bound on buckets per polygon (diminishing returns beyond this).
_MAX_BUCKETS = 64


class _BucketRows(NamedTuple):
    """One polygon's packed latitude buckets (its ``_refine_cache`` memo).

    ``bucket_start[b]:bucket_start[b + 1]`` slices bucket ``b``'s columns
    out of ``edges``, whose five rows ``(y0, y1, x0, dx, inv_dy)`` carry
    the same interpolation terms (and arithmetic order) as ``pip.py`` in
    bucket-contiguous layout.
    """

    lat_origin: float
    inv_bucket_height: float
    bucket_start: np.ndarray  # (num_buckets + 1,) int64
    edges: np.ndarray  # (5, replicated edges) float64


def _bucket_index(
    lats: np.ndarray, lat_origin, inv_bucket_height, num_buckets
) -> np.ndarray:
    """Latitude -> bucket index, clipped into range.

    The one float expression both an edge's endpoints (when packed) and a
    point (when tested) go through: the function is monotone, so every
    latitude an edge can cross falls in one of the edge's buckets.
    """
    raw = np.floor((lats - lat_origin) * inv_bucket_height)
    return np.clip(raw, 0, num_buckets - 1).astype(np.int64)


def _pack_bucket_rows(polygon: Polygon) -> _BucketRows:
    """Replicate the polygon's edges into uniform latitude buckets.

    Horizontal edges are dropped (they never satisfy the half-open
    crossing rule); every other edge is replicated into each bucket its
    interval ``[min(y0, y1), max(y0, y1)]`` overlaps.
    """
    x0, y0, x1, y1 = polygon.all_edges()
    keep = y0 != y1
    x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
    num_edges = len(x0)
    if num_edges == 0:
        # No edge can ever cross a ray: one empty bucket.
        return _BucketRows(0.0, 0.0, np.zeros(2, dtype=np.int64), np.zeros((5, 0)))
    lo = np.minimum(y0, y1)
    hi = np.maximum(y0, y1)
    lat_origin = float(lo.min())
    buckets = int(np.clip(num_edges // _TARGET_EDGES_PER_BUCKET, 1, _MAX_BUCKETS))
    inv_bucket_height = buckets / (float(hi.max()) - lat_origin)
    # An edge belongs to buckets bucket(lo)..bucket(hi) inclusive.
    b_lo = _bucket_index(lo, lat_origin, inv_bucket_height, buckets)
    b_hi = _bucket_index(hi, lat_origin, inv_bucket_height, buckets)
    replicas = b_hi - b_lo + 1
    total = int(replicas.sum())
    edge_of = np.repeat(np.arange(num_edges, dtype=np.int64), replicas)
    run_starts = np.cumsum(replicas) - replicas
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, replicas)
    bucket = np.repeat(b_lo, replicas) + offsets
    packed = edge_of[np.argsort(bucket, kind="stable")]
    bucket_start = np.zeros(buckets + 1, dtype=np.int64)
    np.cumsum(np.bincount(bucket, minlength=buckets), out=bucket_start[1:])
    edges = np.stack([y0, y1, x0, x1 - x0, 1.0 / (y1 - y0)])
    return _BucketRows(lat_origin, inv_bucket_height, bucket_start, edges[:, packed])


def _bucket_rows(polygon: Polygon) -> _BucketRows:
    """The polygon's packed rows, memoized on the polygon object itself.

    A benign build race between threads is tolerated (both pack the same
    immutable arrays; one wins), mirroring ``Polygon.all_edges``.
    """
    rows = polygon._refine_cache
    if rows is None:
        rows = _pack_bucket_rows(polygon)
        polygon._refine_cache = rows
    return rows


class _FlatBucketTable:
    """Every polygon's latitude buckets in one ragged (CSR) edge table.

    Refining a candidate pair needs exactly one bucket of one polygon, so
    all buckets are concatenated into global packed edge arrays indexed
    by row: pair ``(polygon id, point)`` maps to row ``row_offset[pid] +
    bucket(point latitude)``, whose edges are the slice
    ``edge_start[row]:edge_start[row + 1]``.  A whole candidate array is
    then decided by one ragged expansion — ``np.repeat`` each pair over
    its bucket's edges, evaluate the crossing rule elementwise, and
    reduce the hits back per pair with ``np.bincount`` — with no
    per-polygon Python loop and no padding, so skewed bucket widths cost
    only their own slots.

    Dead ids and edge-free polygons carry an all-rejecting MBR (always
    False, like ``contains_points``).  The arrays are either assembled
    here from the polygons' memoized rows or views into a snapshot's
    packed ``ref_*`` buffers (``repro.core.flat``).
    """

    def __init__(self, polygons: Sequence[Polygon | None]):
        num = len(polygons)
        self.row_offset = np.zeros(num, dtype=np.int64)
        self.num_buckets = np.ones(num, dtype=np.int64)
        self.lat_origin = np.zeros(num, dtype=np.float64)
        self.inv_bucket_height = np.zeros(num, dtype=np.float64)
        self.mbr_lng_lo = np.full(num, np.inf)
        self.mbr_lng_hi = np.full(num, -np.inf)
        self.mbr_lat_lo = np.full(num, np.inf)
        self.mbr_lat_hi = np.full(num, -np.inf)
        start_parts: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        edge_parts: list[np.ndarray] = [np.zeros((5, 0))]
        next_row = 0
        next_edge = 0
        for pid, polygon in enumerate(polygons):
            if polygon is None:
                continue  # dead id: all-rejecting MBR, never probed
            rows = _bucket_rows(polygon)
            if rows.edges.shape[1] == 0:
                continue  # no crossing-capable edges: always False
            num_buckets = len(rows.bucket_start) - 1
            mbr = polygon.mbr
            self.mbr_lng_lo[pid] = mbr.lng_lo
            self.mbr_lng_hi[pid] = mbr.lng_hi
            self.mbr_lat_lo[pid] = mbr.lat_lo
            self.mbr_lat_hi[pid] = mbr.lat_hi
            self.row_offset[pid] = next_row
            self.num_buckets[pid] = num_buckets
            self.lat_origin[pid] = rows.lat_origin
            self.inv_bucket_height[pid] = rows.inv_bucket_height
            start_parts.append(next_edge + rows.bucket_start[1:])
            edge_parts.append(rows.edges)
            next_row += num_buckets
            next_edge += rows.edges.shape[1]
        self.edge_start = np.concatenate(start_parts)
        self.y0, self.y1, self.x0, self.dx, self.inv_dy = np.concatenate(
            edge_parts, axis=1
        )

    @property
    def size_bytes(self) -> int:
        arrays = (self.y0, self.y1, self.x0, self.dx, self.inv_dy,
                  self.edge_start, self.row_offset, self.num_buckets,
                  self.lat_origin, self.inv_bucket_height)
        return int(sum(a.nbytes for a in arrays))

    def test(
        self, pids: np.ndarray, px: np.ndarray, py: np.ndarray
    ) -> np.ndarray:
        """PIP decisions for ``(pids[k], (px[k], py[k]))`` pairs at once."""
        out = np.zeros(len(pids), dtype=bool)
        in_mbr = (
            (px >= self.mbr_lng_lo[pids])
            & (px <= self.mbr_lng_hi[pids])
            & (py >= self.mbr_lat_lo[pids])
            & (py <= self.mbr_lat_hi[pids])
        )
        idx = np.nonzero(in_mbr)[0]
        if idx.size == 0:
            return out
        p = pids[idx]
        bx = px[idx]
        by = py[idx]
        rows = self.row_offset[p] + _bucket_index(
            by, self.lat_origin[p], self.inv_bucket_height[p], self.num_buckets[p]
        )
        starts = self.edge_start[rows]
        lens = self.edge_start[rows + 1] - starts
        cum = np.cumsum(lens)
        lo = 0
        while lo < idx.size:
            # Advance until the expanded slot count reaches the chunk
            # budget (always at least one pair).
            consumed = cum[lo - 1] if lo else 0
            hi = int(np.searchsorted(cum, consumed + _CHUNK_PAIRS)) + 1
            hi = min(hi, idx.size)
            self._test_chunk(
                idx[lo:hi], bx[lo:hi], by[lo:hi],
                starts[lo:hi], lens[lo:hi], out,
            )
            lo = hi
        return out

    def _test_chunk(
        self,
        slots: np.ndarray,
        bx: np.ndarray,
        by: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Ragged crossing count for one chunk of pairs (writes ``out``)."""
        total = int(lens.sum())
        if total == 0:
            return
        offsets = np.cumsum(lens) - lens
        edge_idx = (
            np.arange(total, dtype=np.int64)
            + np.repeat(starts - offsets, lens)
        )
        pair_of = np.repeat(np.arange(len(slots), dtype=np.int64), lens)
        y0 = self.y0[edge_idx]
        y1 = self.y1[edge_idx]
        pyv = by[pair_of]
        pxv = bx[pair_of]
        crossing = (y0 <= pyv) != (y1 <= pyv)
        t = (pyv - y0) * self.inv_dy[edge_idx]
        x_at_lat = self.x0[edge_idx] + t * self.dx[edge_idx]
        hits = crossing & (x_at_lat > pxv)
        counts = np.bincount(pair_of[hits], minlength=len(slots))
        out[slots] = (counts % 2).astype(bool)


class RefinementEngine:
    """Refinement of candidate pairs for one polygon sequence.

    One engine belongs to one index snapshot (the builder attaches it to
    every :class:`~repro.core.builder.ProbeView`).  Its bucket table is
    assembled lazily, once, from the polygons' memoized rows — or adopted
    as ``table``, the one a flat snapshot already carries packed — and
    decides every candidate batch with one :meth:`_FlatBucketTable.test`
    call.
    """

    def __init__(
        self,
        polygons: Sequence[Polygon | None],
        *,
        table: _FlatBucketTable | None = None,
    ):
        self._polygons = polygons
        self._table = table
        self._table_lock = threading.Lock()

    @property
    def num_polygons(self) -> int:
        return len(self._polygons)

    def table(self) -> _FlatBucketTable:
        """The engine's bucket table (assembled once, under a lock)."""
        table = self._table
        if table is None:
            with self._table_lock:
                table = self._table
                if table is None:
                    table = _FlatBucketTable(self._polygons)
                    self._table = table
        return table

    def warm(self) -> int:
        """Eagerly assemble the bucket table; returns its size in bytes."""
        return self.table().size_bytes

    def contains(
        self, polygon_id: int, lngs: np.ndarray, lats: np.ndarray
    ) -> np.ndarray:
        """Even-odd PIP test of many points against one live polygon."""
        if self._polygons[polygon_id] is None:
            raise KeyError(f"polygon id {polygon_id} is not live")
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        pids = np.full(len(lngs), polygon_id, dtype=np.int64)
        return self.table().test(pids, lngs, lats)

    def refine(
        self,
        point_idx: np.ndarray,
        pids: np.ndarray,
        is_true: np.ndarray,
        lngs: np.ndarray,
        lats: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """PIP-test candidate pairs; keep true hits and accepted candidates.

        Same contract (and bit-identical output arrays) as the historical
        per-polygon-mask loop: every ``(polygon, point)`` candidate pair
        resolves to one bucket row of the table and the whole candidate
        array is decided by its ragged crossing kernel.  Returns ``(kept
        point indices, kept polygon ids, number of PIP tests, number of
        distinct refined points)``.
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        cand = ~is_true
        cand_points = point_idx[cand]
        cand_pids = pids[cand]
        num_candidates = len(cand_points)
        if num_candidates == 0:
            return point_idx[is_true], pids[is_true], 0, 0
        accepted = self.table().test(
            cand_pids, lngs[cand_points], lats[cand_points]
        )
        keep_points = np.concatenate([point_idx[is_true], cand_points[accepted]])
        keep_pids = np.concatenate([pids[is_true], cand_pids[accepted]])
        # Distinct refined points via a flag scatter: O(C + max index),
        # noticeably cheaper than sorting/hashing the candidate array.
        flags = np.zeros(int(cand_points.max()) + 1, dtype=bool)
        flags[cand_points] = True
        return keep_points, keep_pids, num_candidates, int(np.count_nonzero(flags))
