"""The vectorized refinement engine.

The accurate join spends its non-probe time PIP-testing candidate pairs.
Two independent costs dominate a naive implementation:

* **grouping** — finding each polygon's candidate points with one boolean
  mask per polygon is O(unique polygons x candidates); on many-polygon
  workloads the mask scans dwarf the PIP tests themselves;
* **testing** — the ray-crossing test is linear in the polygon's edge
  count, although only edges whose latitude interval contains the query
  latitude can ever cross the ray.

:class:`RefinementEngine` removes the first cost in one of two ways.
Small refinements use a single stable ``argsort`` over the candidate
polygon ids: the sorted order makes every polygon's candidates one
contiguous slice, so grouping is O(C log C) total instead of O(P x C).
Large refinements skip per-polygon dispatch entirely: the engine's
:class:`_FlatBucketTable` concatenates every polygon's buckets into one
ragged edge table, maps each ``(polygon, point)`` pair to its bucket row
arithmetically, and decides the whole candidate array with one
``repeat``/``bincount`` crossing kernel.  :class:`PolygonAccelerator`
removes the second cost with the interval idea of Kipf et al.'s
*Adaptive Geospatial Joins for Modern Hardware*: edges are packed, per
polygon, into uniform latitude buckets (an edge appears in every bucket
its latitude interval overlaps), and a point only tests the edges of its
own bucket.

Both layers reproduce :func:`repro.geo.pip.contains_points` bit for bit:
the crossing rule, the interpolation arithmetic, and the MBR filter are
identical, and an edge excluded by its bucket can never satisfy the
crossing rule for the excluded latitudes — so accept/reject decisions are
exactly those of the brute-force test, only computed against far fewer
edges.

Accelerators are memoized on the :class:`~repro.geo.polygon.Polygon`
objects themselves, so every snapshot, overlay, and compaction that
shares polygon instances also shares the packed edge arrays; a polygon
restored from serialization simply rebuilds its accelerator on first use.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.geo.polygon import Polygon

#: Point/edge pairs evaluated per vectorized chunk (bounds temporaries),
#: matching :data:`repro.geo.pip._CHUNK_PAIRS`.
_CHUNK_PAIRS = 4_000_000

#: Bucket-count heuristic: aim for this many edges per latitude bucket.
_TARGET_EDGES_PER_BUCKET = 4

#: Upper bound on buckets per polygon (diminishing returns beyond this).
_MAX_BUCKETS = 64

#: Below this many point x edge pairs a single dense broadcast beats the
#: per-bucket loop (the bucket dispatch overhead would dominate); above
#: it, scanning only each point's bucket pays for itself.
_DENSE_PAIRS_CUTOFF = 200_000

#: Candidate-pair count that triggers building the flat table.  Smaller
#: refinements (micro-batches, churning overlays) stay on the per-group
#: path, so a mutation-heavy index never pays the table build.
_TABLE_MIN_PAIRS = 4096


class PolygonAccelerator:
    """Packed edge arrays with per-polygon latitude-interval buckets.

    The polygon's non-horizontal edges (horizontal edges never satisfy
    the half-open crossing rule) are replicated into every uniform
    latitude bucket their interval ``[min(y0, y1), max(y0, y1))``
    overlaps, stored contiguously per bucket (CSR layout) together with
    the precomputed interpolation terms — so a :meth:`contains` call
    scans only the edges whose latitude span can contain each point.

    Large batches walk the buckets (slice each bucket's edges once, test
    that bucket's points against them); small batches instead gather each
    point's bucket row from a padded ELL copy of the same buckets — one
    vectorized crossing test for the whole batch, with padding slots that
    can never satisfy the crossing rule.  When a skewed edge distribution
    would make the padding wasteful the ELL copy is skipped and small
    batches broadcast against the packed non-replicated edges.  All paths
    make bit-identical decisions.
    """

    __slots__ = (
        "mbr",
        "num_buckets",
        "num_edges",
        "lat_origin",
        "inv_bucket_height",
        "bucket_start",
        "y0",
        "y1",
        "x0",
        "dx",
        "inv_dy",
        "ey0",
        "ey1",
        "ex0",
        "edx",
        "einv_dy",
        "ell_y0",
        "ell_y1",
        "ell_x0",
        "ell_dx",
        "ell_inv_dy",
    )

    def __init__(self, polygon: Polygon, max_buckets: int = _MAX_BUCKETS):
        self.mbr = polygon.mbr
        x0, y0, x1, y1 = polygon.all_edges()
        keep = y0 != y1
        x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
        self.num_edges = len(x0)
        # Dense-path arrays: every crossing-capable edge, packed once
        # (released below once the ELL copy supersedes them).
        self.y0 = y0
        self.y1 = y1
        self.x0 = x0
        self.dx = x1 - x0
        lo = np.minimum(y0, y1)
        hi = np.maximum(y0, y1)
        lat_lo = float(lo.min()) if len(lo) else 0.0
        lat_hi = float(hi.max()) if len(hi) else 0.0
        span = lat_hi - lat_lo
        if self.num_edges == 0 or span <= 0.0:
            # No edge can ever cross a ray; contains() is constant False.
            self.num_buckets = 1
            self.lat_origin = lat_lo
            self.inv_bucket_height = 0.0
            self.bucket_start = np.zeros(2, dtype=np.int64)
            empty = np.zeros(0, dtype=np.float64)
            self.inv_dy = empty
            self.ey0 = self.ey1 = self.ex0 = self.edx = self.einv_dy = empty
            self.ell_y0 = self.ell_y1 = self.ell_x0 = None
            self.ell_dx = self.ell_inv_dy = None
            return
        self.inv_dy = 1.0 / (y1 - y0)
        buckets = int(
            np.clip(self.num_edges // _TARGET_EDGES_PER_BUCKET, 1, max_buckets)
        )
        self.num_buckets = buckets
        self.lat_origin = lat_lo
        self.inv_bucket_height = buckets / span
        # An edge belongs to buckets bucket(lo)..bucket(hi) inclusive,
        # computed with the exact float expression points use, so the
        # monotone bucket function guarantees every latitude the edge can
        # cross falls in one of its buckets.
        b_lo = self._bucket_of(lo)
        b_hi = self._bucket_of(hi)
        replicas = b_hi - b_lo + 1
        total = int(replicas.sum())
        edge_of = np.repeat(np.arange(self.num_edges, dtype=np.int64), replicas)
        run_starts = np.cumsum(replicas) - replicas
        offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, replicas)
        bucket_of = np.repeat(b_lo, replicas) + offsets
        order = np.argsort(bucket_of, kind="stable")
        packed = edge_of[order]
        histogram = np.bincount(bucket_of, minlength=buckets)
        self.bucket_start = np.zeros(buckets + 1, dtype=np.int64)
        np.cumsum(histogram, out=self.bucket_start[1:])
        # The same interpolation terms (and arithmetic order) as pip.py,
        # permuted into bucket-contiguous layout.
        self.ey0 = y0[packed]
        self.ey1 = y1[packed]
        self.ex0 = x0[packed]
        self.edx = self.dx[packed]
        self.einv_dy = self.inv_dy[packed]
        # Padded (ELL) copy of the buckets for small batches: row b holds
        # bucket b's edges, padded to the widest bucket with zero slots
        # whose y0 == y1 can never satisfy the crossing rule.  Skipped
        # when edge skew would make the padding dominate the memory, or
        # when there is only one bucket (the dense arrays already are
        # that bucket).
        widths = histogram
        width = int(widths.max())
        if buckets > 1 and width * buckets <= max(4 * total, 64):
            shape = (buckets, width)
            rows = np.repeat(np.arange(buckets), widths)
            cols = np.arange(total, dtype=np.int64) - np.repeat(
                self.bucket_start[:-1], widths
            )
            self.ell_y0 = np.zeros(shape)
            self.ell_y1 = np.zeros(shape)
            self.ell_x0 = np.zeros(shape)
            self.ell_dx = np.zeros(shape)
            self.ell_inv_dy = np.zeros(shape)
            self.ell_y0[rows, cols] = self.ey0
            self.ell_y1[rows, cols] = self.ey1
            self.ell_x0[rows, cols] = self.ex0
            self.ell_dx[rows, cols] = self.edx
            self.ell_inv_dy[rows, cols] = self.einv_dy
            # With the ELL copy present every dispatch path reads either
            # it or the bucketed CSR arrays; drop the dense copies so the
            # process-lifetime memoization doesn't pin a third edge copy.
            self.y0 = self.y1 = self.x0 = None
            self.dx = self.inv_dy = None
        else:
            self.ell_y0 = self.ell_y1 = self.ell_x0 = None
            self.ell_dx = self.ell_inv_dy = None

    def _bucket_of(self, lats: np.ndarray) -> np.ndarray:
        """Latitude -> bucket index, clipped into range (vectorized)."""
        raw = np.floor((lats - self.lat_origin) * self.inv_bucket_height)
        return np.clip(raw, 0, self.num_buckets - 1).astype(np.int64)

    @property
    def size_bytes(self) -> int:
        arrays = [self.bucket_start, self.y0, self.y1, self.x0, self.dx,
                  self.inv_dy, self.ey0, self.ey1, self.ex0, self.edx,
                  self.einv_dy, self.ell_y0, self.ell_y1, self.ell_x0,
                  self.ell_dx, self.ell_inv_dy]
        return int(sum(a.nbytes for a in arrays if a is not None))

    def contains(self, lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Even-odd PIP test, bit-identical to ``contains_points``."""
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        result = np.zeros(lngs.shape, dtype=bool)
        self.contains_into(lngs, lats, result)
        return result

    def contains_into(
        self, lngs: np.ndarray, lats: np.ndarray, out: np.ndarray
    ) -> None:
        """In-place :meth:`contains` over float64 arrays (the hot path).

        Writes the decision for every point into ``out`` (same length as
        the inputs); entries for points outside the MBR are left
        untouched, so ``out`` must start False.  Exists so the engine's
        group-by loop can hand each polygon a contiguous slice of one
        shared output array instead of allocating per group.
        """
        if lngs.size == 0 or self.num_edges == 0:
            return
        mbr = self.mbr
        in_mbr = (
            (lngs >= mbr.lng_lo)
            & (lngs <= mbr.lng_hi)
            & (lats >= mbr.lat_lo)
            & (lats <= mbr.lat_hi)
        )
        idx = np.nonzero(in_mbr)[0]
        if idx.size == 0:
            return
        if idx.size * self.num_edges <= _DENSE_PAIRS_CUTOFF:
            if self.ell_y0 is not None:
                self._crossing_count_ell(idx, lngs, lats, out)
            else:
                self._crossing_count(
                    idx, lngs, lats,
                    self.y0, self.y1, self.x0, self.dx, self.inv_dy, out,
                )
            return
        buckets = self._bucket_of(lats[idx])
        order = np.argsort(buckets, kind="stable")
        sorted_idx = idx[order]
        sorted_buckets = buckets[order]
        distinct, group_starts = np.unique(sorted_buckets, return_index=True)
        group_ends = np.append(group_starts[1:], len(sorted_buckets))
        for bucket, lo, hi in zip(distinct.tolist(), group_starts, group_ends):
            es = int(self.bucket_start[bucket])
            ee = int(self.bucket_start[bucket + 1])
            if es == ee:
                continue
            self._crossing_count(
                sorted_idx[lo:hi], lngs, lats,
                self.ey0[es:ee], self.ey1[es:ee], self.ex0[es:ee],
                self.edx[es:ee], self.einv_dy[es:ee], out,
            )

    def _crossing_count_ell(
        self,
        points: np.ndarray,
        lngs: np.ndarray,
        lats: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Crossing-count via one padded bucket-row gather per point."""
        width = self.ell_y0.shape[1]
        chunk = max(1, _CHUNK_PAIRS // max(1, width))
        for start in range(0, points.size, chunk):
            sel = points[start:start + chunk]
            rows = self._bucket_of(lats[sel])
            y0 = self.ell_y0[rows]
            y1 = self.ell_y1[rows]
            px = lngs[sel][:, None]
            py = lats[sel][:, None]
            crossing = (y0 <= py) != (y1 <= py)
            t = (py - y0) * self.ell_inv_dy[rows]
            x_at_lat = self.ell_x0[rows] + t * self.ell_dx[rows]
            counts = np.count_nonzero(crossing & (x_at_lat > px), axis=1)
            out[sel] = (counts % 2).astype(bool)

    @staticmethod
    def _crossing_count(
        points: np.ndarray,
        lngs: np.ndarray,
        lats: np.ndarray,
        y0: np.ndarray,
        y1: np.ndarray,
        x0: np.ndarray,
        dx: np.ndarray,
        inv_dy: np.ndarray,
        result: np.ndarray,
    ) -> None:
        """Crossing-count ``points`` against one edge slice (chunked)."""
        y0 = y0[None, :]
        y1 = y1[None, :]
        x0 = x0[None, :]
        dx = dx[None, :]
        inv_dy = inv_dy[None, :]
        chunk = max(1, _CHUNK_PAIRS // max(1, y0.shape[1]))
        for start in range(0, points.size, chunk):
            sel = points[start:start + chunk]
            px = lngs[sel][:, None]
            py = lats[sel][:, None]
            crossing = (y0 <= py) != (y1 <= py)
            t = (py - y0) * inv_dy
            x_at_lat = x0 + t * dx
            counts = np.count_nonzero(crossing & (x_at_lat > px), axis=1)
            result[sel] = (counts % 2).astype(bool)


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

    The per-pair MBR filter, bucket arithmetic, and crossing test are
    bit-identical to the per-polygon accelerators, so decisions match the
    group-by path exactly.  Dead ids and edge-free polygons carry an
    all-rejecting MBR (always False, like ``contains_points``).
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
        value_parts: list[tuple[np.ndarray, ...]] = []
        next_row = 0
        next_edge = 0
        for pid, polygon in enumerate(polygons):
            if polygon is None:
                continue  # dead id: all-rejecting MBR, never probed
            accelerator = polygon_accelerator(polygon)
            if accelerator.num_edges == 0:
                continue  # no crossing-capable edges: always False
            mbr = accelerator.mbr
            self.mbr_lng_lo[pid] = mbr.lng_lo
            self.mbr_lng_hi[pid] = mbr.lng_hi
            self.mbr_lat_lo[pid] = mbr.lat_lo
            self.mbr_lat_hi[pid] = mbr.lat_hi
            self.row_offset[pid] = next_row
            self.num_buckets[pid] = accelerator.num_buckets
            self.lat_origin[pid] = accelerator.lat_origin
            self.inv_bucket_height[pid] = accelerator.inv_bucket_height
            start_parts.append(next_edge + accelerator.bucket_start[1:])
            value_parts.append(
                (accelerator.ey0, accelerator.ey1, accelerator.ex0,
                 accelerator.edx, accelerator.einv_dy)
            )
            next_row += accelerator.num_buckets
            next_edge += len(accelerator.ey0)
        self.edge_start = np.concatenate(start_parts)
        if value_parts:
            self.y0, self.y1, self.x0, self.dx, self.inv_dy = (
                np.concatenate([values[slot] for values in value_parts])
                for slot in range(5)
            )
        else:
            empty = np.zeros(0, dtype=np.float64)
            self.y0 = self.y1 = self.x0 = self.dx = self.inv_dy = empty

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
        raw = np.floor((by - self.lat_origin[p]) * self.inv_bucket_height[p])
        rows = self.row_offset[p] + np.clip(
            raw, 0, self.num_buckets[p] - 1
        ).astype(np.int64)
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


def polygon_accelerator(polygon: Polygon) -> PolygonAccelerator:
    """The polygon's accelerator, memoized on the polygon object itself.

    A benign build race between threads is tolerated (both build the same
    immutable arrays; one wins), mirroring ``Polygon.all_edges``.
    """
    accelerator = polygon._refine_cache
    if accelerator is None:
        accelerator = PolygonAccelerator(polygon)
        polygon._refine_cache = accelerator
    return accelerator


class RefinementEngine:
    """Group-by refinement over candidate pairs for one polygon sequence.

    One engine belongs to one index snapshot (the builder attaches it to
    every :class:`~repro.core.builder.ProbeView`), but the per-polygon
    accelerators are shared across snapshots through the polygons
    themselves, so delta overlays, compactions, and serialize round trips
    never redo the packing for a surviving polygon.
    """

    def __init__(
        self,
        polygons: Sequence[Polygon | None],
        *,
        build_table: bool = True,
        table: _FlatBucketTable | None = None,
    ):
        self._polygons = polygons
        #: Ephemeral engines (built per call, e.g. by ``refine_candidates``
        #: when no snapshot engine is passed) set ``build_table=False``:
        #: they could never amortize the flat-table build, so they stay on
        #: the group-by path.  Snapshot engines (``ProbeView.refiner``)
        #: build the table once and reuse it for their lifetime — or adopt
        #: ``table``, the one a flat snapshot already carries packed.
        self._build_table = build_table
        self._table = table
        self._table_lock = threading.Lock()

    @property
    def num_polygons(self) -> int:
        return len(self._polygons)

    def accelerator(self, polygon_id: int) -> PolygonAccelerator:
        polygon = self._polygons[polygon_id]
        if polygon is None:
            raise KeyError(f"polygon id {polygon_id} is not live")
        return polygon_accelerator(polygon)

    def warm(self) -> int:
        """Eagerly build every accelerator and the flat table; returns bytes."""
        total = 0
        for polygon in self._polygons:
            if polygon is not None:
                total += polygon_accelerator(polygon).size_bytes
        if self._build_table:
            total += self._flat_table().size_bytes
        return total

    def _flat_table(self) -> _FlatBucketTable:
        """The engine's flat bucket table (built once, under a lock)."""
        table = self._table
        if table is None:
            with self._table_lock:
                table = self._table
                if table is None:
                    table = _FlatBucketTable(self._polygons)
                    self._table = table
        return table

    def contains(
        self, polygon_id: int, lngs: np.ndarray, lats: np.ndarray
    ) -> np.ndarray:
        return self.accelerator(polygon_id).contains(lngs, lats)

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
        per-polygon-mask loop.  Large refinements go through the flat
        bucket table: every ``(polygon, point)`` pair resolves to one
        bucket row, and the whole candidate array is decided by a single
        ragged crossing kernel.  Small refinements, which would not
        amortize the table build, take the group-by path instead: one
        stable argsort over the candidate polygon ids turns every
        polygon's candidates into one contiguous slice, each tested
        through that polygon's accelerator.  Returns ``(kept point
        indices, kept polygon ids, number of PIP tests, number of
        distinct refined points)``.
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        cand = ~is_true
        cand_points = point_idx[cand]
        cand_pids = pids[cand]
        num_candidates = len(cand_points)
        if num_candidates:
            accepted = self._accept_candidates(
                cand_pids, lngs[cand_points], lats[cand_points]
            )
        else:
            accepted = np.zeros(0, dtype=bool)
        keep_points = np.concatenate([point_idx[is_true], cand_points[accepted]])
        keep_pids = np.concatenate([pids[is_true], cand_pids[accepted]])
        if num_candidates:
            # Distinct refined points via a flag scatter: O(C + max index),
            # noticeably cheaper than sorting/hashing the candidate array.
            flags = np.zeros(int(cand_points.max()) + 1, dtype=bool)
            flags[cand_points] = True
            num_refined = int(np.count_nonzero(flags))
        else:
            num_refined = 0
        return keep_points, keep_pids, int(num_candidates), num_refined

    def _accept_candidates(
        self,
        cand_pids: np.ndarray,
        cand_lngs: np.ndarray,
        cand_lats: np.ndarray,
    ) -> np.ndarray:
        """PIP-accept one candidate batch; returns the boolean accept mask.

        The table-vs-group dispatch lives here so subclasses (the sharded
        mini-join refiner) can partition a batch into classes, run each
        class through this same decision procedure, and scatter the masks
        back — each pair's verdict depends only on the pair itself, so
        any partition of the batch yields a bit-identical overall mask.
        """
        num_candidates = len(cand_pids)
        accepted = np.zeros(num_candidates, dtype=bool)
        if num_candidates == 0:
            return accepted
        if self._build_table and (
            num_candidates >= _TABLE_MIN_PAIRS or self._table is not None
        ):
            return self._flat_table().test(cand_pids, cand_lngs, cand_lats)
        self._refine_groups(
            np.arange(num_candidates), cand_pids, cand_lngs, cand_lats,
            accepted,
        )
        return accepted

    def _refine_groups(
        self,
        loop_idx: np.ndarray,
        cand_pids: np.ndarray,
        cand_lngs: np.ndarray,
        cand_lats: np.ndarray,
        accepted: np.ndarray,
    ) -> None:
        """Group-by path over a subset of the candidate pairs (in place)."""
        order = loop_idx[np.argsort(cand_pids[loop_idx], kind="stable")]
        sorted_pids = cand_pids[order]
        # One gather up front: each polygon's group then reads (and
        # writes) contiguous slices, keeping the per-group cost at a
        # handful of numpy calls instead of two fancy gathers each.
        sorted_lngs = cand_lngs[order]
        sorted_lats = cand_lats[order]
        distinct, group_starts = np.unique(sorted_pids, return_index=True)
        group_ends = np.append(group_starts[1:], len(sorted_pids))
        accepted_sorted = np.zeros(order.size, dtype=bool)
        for pid, lo, hi in zip(distinct.tolist(), group_starts, group_ends):
            self.accelerator(int(pid)).contains_into(
                sorted_lngs[lo:hi],
                sorted_lats[lo:hi],
                accepted_sorted[lo:hi],
            )
        accepted[order] = accepted_sorted
