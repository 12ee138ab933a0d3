"""The point-polygon join algorithms (Listing 3 of the paper).

Both joins are index nested-loop joins: probe the cell store with every
point's leaf cell id, decode the returned polygon references, and

* **approximate join** — emit every reference as a join pair.  True hits
  are exact; candidate hits may be false positives whose distance from the
  polygon is bounded by the index's precision bound.
* **accurate join** — emit true hits directly and send candidate hits to
  the refinement phase: every candidate pair PIP-tested against its
  polygon's latitude bucket by the one ragged crossing kernel of
  :mod:`repro.geo.refine`.

Following the paper's evaluation methodology, the default "count mode"
aggregates points per polygon instead of materializing pairs;
``materialize=True`` returns the pair arrays as well.

Every parallel evaluation — threads over morsels of one batch
(:func:`parallel_count_join`, the serving layer's morsel dispatch) or
processes over spatial shards (:mod:`repro.serve.sharded`) — joins each
point exactly once and keeps private partial results, so all of them end
in the same :func:`merge_join_results`: the only place a ``JoinResult``
is built from other ``JoinResult``s.

The ``store`` argument is anything with a ``probe(cell_ids) -> entries``
method returning tagged entries (ACT, the B-tree, the sorted vector, ...),
so every physical representation the paper compares runs through the exact
same join driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.core.lookup_table import (
    TAG_OFFSET,
    TAG_ONE_REF,
    TAG_TWO_REFS,
    LookupTable,
    expand_offsets,
)
from repro.core.morsels import MorselExecutor
from repro.geo.polygon import Polygon
from repro.geo.refine import RefinementEngine
from repro.util.timing import Timer

_VALUE_MASK = np.uint64((1 << 31) - 1)


class CellStore(Protocol):
    """The probe interface every physical representation implements."""

    def probe(self, query_ids: np.ndarray) -> np.ndarray: ...


@dataclass
class JoinResult:
    """Outcome of one join run."""

    num_points: int
    counts: np.ndarray  # points per polygon id
    num_pairs: int = 0
    num_true_hit_pairs: int = 0
    num_candidate_pairs: int = 0
    num_pip_tests: int = 0
    solely_true_hits: int = 0  # points that never entered refinement
    probe_seconds: float = 0.0
    refine_seconds: float = 0.0
    pair_points: np.ndarray | None = None
    pair_polygons: np.ndarray | None = None

    @property
    def sth_rate(self) -> float:
        """Paper's "solely true hits" metric (Table 7)."""
        if self.num_points == 0:
            return 1.0
        return self.solely_true_hits / self.num_points


def decode_entries(
    entries: np.ndarray, lookup_table: LookupTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand tagged entries into (point index, polygon id, is_true) arrays."""
    tags = entries & np.uint64(3)
    points_parts: list[np.ndarray] = []
    pids_parts: list[np.ndarray] = []
    true_parts: list[np.ndarray] = []

    one_idx = np.nonzero(tags == np.uint64(TAG_ONE_REF))[0]
    if one_idx.size:
        values = (entries[one_idx] >> np.uint64(2)) & _VALUE_MASK
        points_parts.append(one_idx)
        pids_parts.append((values >> np.uint64(1)).astype(np.int64))
        true_parts.append((values & np.uint64(1)).astype(bool))

    two_idx = np.nonzero(tags == np.uint64(TAG_TWO_REFS))[0]
    if two_idx.size:
        first = (entries[two_idx] >> np.uint64(2)) & _VALUE_MASK
        second = (entries[two_idx] >> np.uint64(33)) & _VALUE_MASK
        points_parts.append(np.repeat(two_idx, 2))
        interleaved_pids = np.empty(two_idx.size * 2, dtype=np.int64)
        interleaved_pids[0::2] = (first >> np.uint64(1)).astype(np.int64)
        interleaved_pids[1::2] = (second >> np.uint64(1)).astype(np.int64)
        pids_parts.append(interleaved_pids)
        interleaved_true = np.empty(two_idx.size * 2, dtype=bool)
        interleaved_true[0::2] = (first & np.uint64(1)).astype(bool)
        interleaved_true[1::2] = (second & np.uint64(1)).astype(bool)
        true_parts.append(interleaved_true)

    offset_idx = np.nonzero(tags == np.uint64(TAG_OFFSET))[0]
    if offset_idx.size:
        offsets = (entries[offset_idx] >> np.uint64(2)).astype(np.int64)
        # Pairs are grouped by offset, then point, then polygon id.
        by_offset = np.argsort(offsets, kind="stable")
        which, ids, interior = expand_offsets(
            lookup_table.array, offsets[by_offset]
        )
        points_parts.append(offset_idx[by_offset][which])
        pids_parts.append(ids)
        true_parts.append(interior)

    if not points_parts:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.zeros(0, dtype=bool)
    return (
        np.concatenate(points_parts),
        np.concatenate(pids_parts),
        np.concatenate(true_parts),
    )


def batch_probe(
    store: CellStore, lookup_table: LookupTable, cell_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe the store with leaf cell ids and decode the tagged entries.

    The shared first phase of both joins, exposed so other drivers (the
    serving subsystem, caching stores) dispatch through the exact same
    probe path instead of re-implementing it.  Returns ``(point index,
    polygon id, is_true)`` pair arrays.
    """
    entries = store.probe(np.asarray(cell_ids, dtype=np.uint64))
    return decode_entries(entries, lookup_table)


def refine_candidates(
    point_idx: np.ndarray,
    pids: np.ndarray,
    is_true: np.ndarray,
    polygons: Sequence[Polygon],
    lngs: np.ndarray,
    lats: np.ndarray,
    engine: RefinementEngine | None = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Refinement phase of the accurate join: PIP-test candidate pairs.

    Takes the pair arrays produced by :func:`batch_probe`, keeps true hits
    as-is, and runs the candidates through a
    :class:`~repro.geo.refine.RefinementEngine`, whose bucket table
    decides the whole candidate array with one crossing kernel.
    ``engine`` is normally the snapshot's prebuilt engine
    (``ProbeView.refiner``); when omitted, an ephemeral one is created
    over ``polygons`` — the packed bucket rows are memoized on the
    polygon objects, so it pays one concatenate per call, not a
    re-bucketing.  Returns ``(kept point indices, kept polygon ids,
    number of PIP tests, number of distinct refined points)``.
    """
    if engine is None:
        engine = RefinementEngine(polygons)
    return engine.refine(point_idx, pids, is_true, lngs, lats)


def approximate_join(
    store: CellStore,
    lookup_table: LookupTable,
    cell_ids: np.ndarray,
    num_polygons: int,
    materialize: bool = False,
    tracer=None,
) -> JoinResult:
    """Approximate join: candidate hits count as hits (no PIP tests).

    ``tracer`` (an optional :class:`~repro.obs.trace.Tracer`) receives
    the already-measured probe phase as a child span of whatever dispatch
    span is active in the calling thread — no extra clock reads.
    """
    with Timer() as probe_timer:
        point_idx, pids, is_true = batch_probe(store, lookup_table, cell_ids)
        counts = np.bincount(pids, minlength=num_polygons)
    if tracer is not None:
        tracer.emit("probe", probe_timer.seconds, points=len(cell_ids))
    result = JoinResult(
        num_points=len(cell_ids),
        counts=counts,
        num_pairs=len(point_idx),
        num_true_hit_pairs=int(np.count_nonzero(is_true)),
        num_candidate_pairs=int(np.count_nonzero(~is_true)),
        solely_true_hits=len(cell_ids),  # refinement never runs
        probe_seconds=probe_timer.seconds,
    )
    if materialize:
        result.pair_points = point_idx
        result.pair_polygons = pids
    return result


def accurate_join(
    store: CellStore,
    lookup_table: LookupTable,
    cell_ids: np.ndarray,
    polygons: Sequence[Polygon],
    lngs: np.ndarray,
    lats: np.ndarray,
    materialize: bool = False,
    engine: RefinementEngine | None = None,
    tracer=None,
) -> JoinResult:
    """Accurate join: candidate hits are refined with PIP tests.

    ``tracer`` (an optional :class:`~repro.obs.trace.Tracer`) receives
    the already-measured probe and refine phases as child spans of
    whatever dispatch span is active in the calling thread.
    """
    with Timer() as probe_timer:
        point_idx, pids, is_true = batch_probe(store, lookup_table, cell_ids)
    with Timer() as refine_timer:
        keep_points, keep_pids, num_pip, num_refined = refine_candidates(
            point_idx, pids, is_true, polygons, lngs, lats, engine=engine
        )
        counts = np.bincount(keep_pids, minlength=len(polygons))
    if tracer is not None:
        tracer.emit("probe", probe_timer.seconds, points=len(cell_ids))
        tracer.emit("refine", refine_timer.seconds, pip_tests=int(num_pip))
    result = JoinResult(
        num_points=len(cell_ids),
        counts=counts,
        num_pairs=len(keep_points),
        num_true_hit_pairs=int(np.count_nonzero(is_true)),
        num_candidate_pairs=num_pip,
        num_pip_tests=num_pip,
        solely_true_hits=len(cell_ids) - num_refined,
        probe_seconds=probe_timer.seconds,
        refine_seconds=refine_timer.seconds,
    )
    if materialize:
        result.pair_points = keep_points
        result.pair_polygons = keep_pids
    return result


def merge_join_results(
    parts: Sequence[JoinResult],
    *,
    num_points: int,
    num_polygons: int,
    wall_seconds: float,
    materialize: bool = False,
) -> JoinResult:
    """Merge partial results over disjoint point sets into one result.

    The one fan-out merge: morsels of a thread-parallel join and shards
    of a partitioned one both join every point exactly once, so
    ``counts`` and every statistic merge by summation (zero parts give
    the all-zero result).  The parts ran concurrently, so their busy
    times overlap: ``wall_seconds`` — the elapsed time of the whole
    fan-out — is apportioned between probe and refine by the parts' busy
    ratio, and ``probe_seconds + refine_seconds == wall_seconds``.  With
    ``materialize`` the parts' pair arrays are concatenated; the caller
    remaps each part's ``pair_points`` to indices of the whole batch
    first.
    """
    refine_total = sum(p.refine_seconds for p in parts)
    busy_total = refine_total + sum(p.probe_seconds for p in parts)
    refine_wall = (
        wall_seconds * refine_total / busy_total if busy_total > 0 else 0.0
    )
    merged = JoinResult(
        num_points=num_points,
        counts=(
            np.sum([p.counts for p in parts], axis=0)
            if parts
            else np.zeros(num_polygons, dtype=np.int64)
        ),
        num_pairs=sum(p.num_pairs for p in parts),
        num_true_hit_pairs=sum(p.num_true_hit_pairs for p in parts),
        num_candidate_pairs=sum(p.num_candidate_pairs for p in parts),
        num_pip_tests=sum(p.num_pip_tests for p in parts),
        solely_true_hits=sum(p.solely_true_hits for p in parts),
        probe_seconds=wall_seconds - refine_wall,
        refine_seconds=refine_wall,
    )
    if materialize:
        # The leading empty array keeps concatenate defined for zero parts.
        none = np.zeros(0, dtype=np.int64)
        merged.pair_points = np.concatenate(
            [none, *(p.pair_points for p in parts)]
        )
        merged.pair_polygons = np.concatenate(
            [none, *(p.pair_polygons for p in parts)]
        )
    return merged


def parallel_count_join(
    store: CellStore,
    lookup_table: LookupTable,
    cell_ids: np.ndarray,
    num_polygons: int,
    num_threads: int,
    polygons: Sequence[Polygon] | None = None,
    lngs: np.ndarray | None = None,
    lats: np.ndarray | None = None,
    batch_size: int = 1 << 16,
    engine: RefinementEngine | None = None,
    materialize: bool = False,
) -> JoinResult:
    """Multi-threaded join (the paper's probe-phase parallelization).

    Worker threads fetch batches from a shared atomic counter and keep
    private partial results, merged at the end — the scheme the paper
    describes (Section 3.4), run by the shared
    :class:`~repro.core.morsels.MorselExecutor` with a batch size suited
    to numpy-granularity work instead of the paper's 16-tuple batches.

    Every :class:`JoinResult` statistic (and, with ``materialize``, the
    pair set) matches the single-threaded drivers on the same inputs;
    see :func:`merge_join_results` for how the wall time is apportioned.
    """
    cell_ids = np.asarray(cell_ids, dtype=np.uint64)
    exact = polygons is not None
    if exact and engine is None:
        # One shared engine: its bucket table is assembled once and
        # amortized across every batch of this call.
        engine = RefinementEngine(polygons)

    def work(lo: int, hi: int) -> JoinResult:
        if exact:
            part = accurate_join(
                store, lookup_table, cell_ids[lo:hi], polygons, lngs[lo:hi],
                lats[lo:hi], materialize=materialize, engine=engine,
            )
        else:
            part = approximate_join(
                store, lookup_table, cell_ids[lo:hi], num_polygons,
                materialize=materialize,
            )
        if materialize:
            part.pair_points = part.pair_points + lo
        return part

    with Timer() as timer, MorselExecutor(num_threads, batch_size) as pool:
        parts = pool.map_morsels(len(cell_ids), work)
    return merge_join_results(
        parts,
        num_points=len(cell_ids),
        num_polygons=num_polygons,
        wall_seconds=timer.seconds,
        materialize=materialize,
    )
