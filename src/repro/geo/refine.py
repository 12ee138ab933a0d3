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
decides a whole candidate array — one pair or a million — with a single
ragged ``repeat`` / ``reduceat`` crossing-parity kernel and no
per-polygon dispatch.  That table is the only refinement layout and its
chunk kernel the only crossing kernel besides the brute-force reference
:func:`repro.geo.pip.contains_points`, which it reproduces bit for bit:
the crossing rule, the interpolation arithmetic, and the MBR filter are
identical, and an edge excluded by its bucket can never satisfy the
crossing rule for the excluded latitudes.

**The bucket rule: one bucket per edge.**  A polygon with ``E``
non-horizontal edges gets ``min(E, _MAX_BUCKETS)`` buckets, so a bucket
holds little more than the edges that really cross its latitudes, and
the kernel pays per crossing edge, not per bucket edge.  Replicas grow
as ``E + buckets x (edges crossing a latitude)`` — linearly.  The sweep
on the five 662-edge ``boroughs`` polygons (border-point stream of
``offline_border_exact``, seed 11; edge slots evaluated per candidate
pair, packed table bytes):

=======  ===========  ========  ===========
buckets  slots/pair   replicas  table bytes
=======  ===========  ========  ===========
64       14.43        4,158     169,208
128      8.65         5,014     206,008
256      5.78         6,740     280,168
512      4.32         10,178    427,928
662 (E)  3.98         12,188    514,328
=======  ===========  ========  ===========

:func:`_bucket_index` is the one monotone float expression both an
edge's endpoints and a point go through; that monotonicity is the whole
correctness argument and does not depend on the bucket count.  The
layout is therefore self-describing — ``num_buckets`` /
``inv_bucket_height`` / ``edge_start`` say how a polygon was bucketed —
and a table adopted from a snapshot packed by an older version (coarser
buckets) stays valid exactly as it is: it keeps whatever bucket count it
was packed with, decides identically, and only evaluates more slots per
pair.  No format bump, no new buffer.

**The MBR filter precedes the bucket arithmetic.**  Only a pair whose
point lies inside its polygon's MBR — finite coordinates, a live
polygon with edges — goes on to ``floor -> astype(int64) -> take``; a
NaN or infinite coordinate, a dead id or an edge-free polygon (all three
fail the comparison against an all-rejecting or finite MBR) is decided
``False`` before any integer cast or gather could see it.

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

#: Upper bound on buckets per polygon; below it a polygon gets one
#: bucket per non-horizontal edge.
_MAX_BUCKETS = 1024


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
    # np.clip, without its Python-level dispatch.
    np.maximum(raw, 0, out=raw)
    np.minimum(raw, num_buckets - 1, out=raw)
    return raw.astype(np.int64)


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
    buckets = min(num_edges, _MAX_BUCKETS)
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
    reduce the hits back to one parity bit per pair with
    ``np.bitwise_xor.reduceat`` — with no per-polygon Python loop and no
    padding, so skewed bucket widths cost only their own slots.

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
                  self.lat_origin, self.inv_bucket_height,
                  self.mbr_lng_lo, self.mbr_lng_hi,
                  self.mbr_lat_lo, self.mbr_lat_hi)
        return int(sum(a.nbytes for a in arrays))

    def test(
        self, pids: np.ndarray, px: np.ndarray, py: np.ndarray
    ) -> np.ndarray:
        """PIP decisions for ``(pids[k], (px[k], py[k]))`` pairs at once."""
        out = np.zeros(len(pids), dtype=bool)
        # The MBR filter comes first: only its survivors — finite
        # coordinates inside a live polygon's latitude range — may reach
        # the bucket arithmetic's integer cast and the gathers behind it.
        in_mbr = (
            (px >= self.mbr_lng_lo.take(pids))
            & (px <= self.mbr_lng_hi.take(pids))
            & (py >= self.mbr_lat_lo.take(pids))
            & (py <= self.mbr_lat_hi.take(pids))
        )
        idx = np.nonzero(in_mbr)[0]
        if idx.size == 0:
            return out
        p = pids.take(idx)
        bx = px.take(idx)
        by = py.take(idx)
        rows = _bucket_index(
            by,
            self.lat_origin.take(p),
            self.inv_bucket_height.take(p),
            self.num_buckets.take(p),
        )
        rows += self.row_offset.take(p)
        starts = self.edge_start.take(rows)
        rows += 1
        lens = self.edge_start.take(rows)
        lens -= starts
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
        """Ragged crossing parity for one chunk of pairs (writes ``out``).

        Pair ``k`` owns the ``lens[k]`` expanded slots from the
        chunk-relative ``offsets[k]``; its decision is the XOR of its
        slots' crossing bits.
        """
        offsets = np.cumsum(lens)
        total = int(offsets[-1])
        if total == 0:
            return
        offsets -= lens
        edge_idx = np.repeat(starts - offsets, lens)
        edge_idx += np.arange(total, dtype=np.int64)
        pyv = np.repeat(by, lens)
        y0 = self.y0.take(edge_idx)
        crossing = (y0 <= pyv) != (self.y1.take(edge_idx) <= pyv)
        # x_at_lat = x0 + ((py - y0) * inv_dy) * dx, pip.py's operation
        # order, evaluated in place in the expanded latitude buffer.
        x_at_lat = pyv
        x_at_lat -= y0
        x_at_lat *= self.inv_dy.take(edge_idx)
        x_at_lat *= self.dx.take(edge_idx)
        x_at_lat += self.x0.take(edge_idx)
        hits = x_at_lat > np.repeat(bx, lens)
        hits &= crossing
        # ``reduceat`` returns the element AT the offset for an empty
        # segment, so only rows that own slots are reduced (an empty row
        # crosses nothing and keeps its False).
        live = np.nonzero(lens)[0]
        out[slots.take(live)] = np.bitwise_xor.reduceat(
            hits.view(np.uint8), offsets.take(live)
        )


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
        is_true: np.ndarray | None,
        lngs: np.ndarray,
        lats: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """PIP-test candidate pairs; keep true hits and accepted candidates.

        Same contract (and bit-identical output arrays) as the historical
        per-polygon-mask loop: every ``(polygon, point)`` candidate pair
        resolves to one bucket row of the table and the whole candidate
        array is decided by its ragged crossing kernel.  ``is_true=None``
        says every pair is a candidate (the accurate join sends only
        those).  Returns ``(kept point indices, kept polygon ids, number
        of PIP tests, number of distinct refined points)``.
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        if is_true is None:
            true = np.zeros(0, dtype=np.intp)
            cand_points, cand_pids = point_idx, pids
        else:
            true = np.nonzero(is_true)[0]
            cand = np.nonzero(~is_true)[0]
            cand_points = point_idx.take(cand)
            cand_pids = pids.take(cand)
        num_candidates = len(cand_points)
        if num_candidates == 0:
            return point_idx.take(true), pids.take(true), 0, 0
        accepted = np.nonzero(
            self.table().test(
                cand_pids, lngs.take(cand_points), lats.take(cand_points)
            )
        )[0]
        keep_points = np.concatenate(
            [point_idx.take(true), cand_points.take(accepted)]
        )
        keep_pids = np.concatenate([pids.take(true), cand_pids.take(accepted)])
        # Distinct refined points via a flag scatter: O(C + max index),
        # noticeably cheaper than sorting/hashing the candidate array.
        flags = np.zeros(int(cand_points.max()) + 1, dtype=bool)
        flags[cand_points] = True
        return keep_points, keep_pids, num_candidates, int(np.count_nonzero(flags))
