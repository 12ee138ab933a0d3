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

Every join starts in the same driver, :func:`join_batch`: the one
function that picks the kernel (exact or approximate) and the schedule
(one straight call, or morsels of the batch handed to the threads of a
:class:`~repro.core.morsels.MorselExecutor`).  An index view, the serving
layer and the paper-facing :func:`parallel_count_join` call it, behind
the one batch check (:func:`check_batch`) the public doors share.

Every parallel evaluation — threads over morsels of one batch (the
driver) or processes over spatial shards (:mod:`repro.serve.sharded`) —
joins each point exactly once and keeps private partial results, so all
of them end in the same :func:`merge_join_results`: the only place a
``JoinResult`` is built from other ``JoinResult``s.

The two kernels take as ``store`` anything with a ``probe(cell_ids) ->
entries`` method returning tagged entries (ACT, the B-tree, the sorted
vector, ...), which is how the evaluation runs every physical
representation the paper compares through the same probe, decode and
refinement code.  An index's own store is always the ACT.
"""

from __future__ import annotations

from contextlib import nullcontext
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
    offset_counts,
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


def expensive_entries(
    entries: np.ndarray, lookup_table: LookupTable
) -> np.ndarray:
    """Which tagged entries send their points into the refinement phase.

    ``out[i]`` is true when entry ``i`` holds at least one candidate
    (non-interior) reference — "any ``is_true == False`` among
    :func:`decode_entries`' pairs of that entry" — read off the inlined
    interior bits and the ``num_candidate`` word of an offset entry's
    list, without expanding the pairs.  Sentinel entries (misses) are
    cheap.
    """
    entries = np.asarray(entries, dtype=np.uint64)
    tags = entries & np.uint64(3)
    first_candidate = (entries >> np.uint64(2)) & np.uint64(1) == 0
    second_candidate = (entries >> np.uint64(33)) & np.uint64(1) == 0
    expensive = (tags == np.uint64(TAG_ONE_REF)) & first_candidate
    expensive |= (tags == np.uint64(TAG_TWO_REFS)) & (
        first_candidate | second_candidate
    )
    offset_idx = np.nonzero(tags == np.uint64(TAG_OFFSET))[0]
    if offset_idx.size:
        offsets = (entries[offset_idx] >> np.uint64(2)).astype(np.int64)
        _, num_cand = offset_counts(lookup_table.array, offsets)
        expensive[offset_idx] = num_cand > 0
    return expensive


def check_batch(
    lats: np.ndarray, lngs: np.ndarray, cell_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Coerce one point batch and insist that its arrays are 1-D and
    equally long.

    The one check on a batch arriving from outside, made at the public
    doors (:meth:`~repro.core.builder.ProbeView.join`, the serving
    front) so nothing behind them indexes one array with positions of
    another.  Returns the arrays as ``float64`` / ``float64`` /
    ``uint64`` (an absent ``cell_ids`` stays ``None``).
    """
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    if lats.ndim != 1 or lngs.shape != lats.shape:
        raise ValueError(
            "lats and lngs must be 1-D arrays of the same shape, got "
            f"{lats.shape} and {lngs.shape}"
        )
    if cell_ids is not None:
        cell_ids = np.asarray(cell_ids, dtype=np.uint64)
        if cell_ids.shape != lats.shape:
            raise ValueError(
                f"cell_ids must hold one id per point, got shape "
                f"{cell_ids.shape} for points of shape {lats.shape}"
            )
    return lats, lngs, cell_ids


def approximate_join(
    store: CellStore,
    lookup_table: LookupTable,
    cell_ids: np.ndarray,
    num_polygons: int,
    materialize: bool = False,
    tracer=None,
    observe=None,
    entries: np.ndarray | None = None,
) -> JoinResult:
    """Approximate join: candidate hits count as hits (no PIP tests).

    ``tracer`` (an optional :class:`~repro.obs.trace.Tracer`) receives
    the already-measured probe phase as a child span of whatever dispatch
    span is active in the calling thread — no extra clock reads.
    ``observe`` and ``entries`` are :func:`join_batch`'s.
    """
    with Timer() as probe_timer:
        if entries is None:
            entries = store.probe(cell_ids)
        if observe is not None:
            observe(cell_ids, entries)
        point_idx, pids, is_true = decode_entries(entries, lookup_table)
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
    observe=None,
    entries: np.ndarray | None = None,
) -> JoinResult:
    """Accurate join: candidate hits are refined with PIP tests.

    ``engine`` is normally the snapshot's prebuilt refinement engine
    (``ProbeView.refiner``); when omitted an ephemeral one is created
    over ``polygons`` — the packed bucket rows are memoized on the
    polygon objects, so it pays one concatenate, not a re-bucketing.
    ``tracer`` (an optional :class:`~repro.obs.trace.Tracer`) receives
    the already-measured probe and refine phases as child spans of
    whatever dispatch span is active in the calling thread.
    ``observe`` and ``entries`` are :func:`join_batch`'s.
    """
    if engine is None:
        engine = RefinementEngine(polygons)
    with Timer() as probe_timer:
        if entries is None:
            entries = store.probe(cell_ids)
        if observe is not None:
            observe(cell_ids, entries)
        point_idx, pids, is_true = decode_entries(entries, lookup_table)
    with Timer() as refine_timer:
        keep_points, keep_pids, num_pip, num_refined = engine.refine(
            point_idx, pids, is_true, lngs, lats
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


def join_batch(
    store: CellStore,
    lookup_table: LookupTable,
    cell_ids: np.ndarray,
    polygons: Sequence[Polygon | None],
    lngs: np.ndarray,
    lats: np.ndarray,
    *,
    exact: bool,
    materialize: bool = False,
    engine: RefinementEngine | None = None,
    executor: MorselExecutor | None = None,
    tracer=None,
    observe=None,
    entries: np.ndarray | None = None,
) -> JoinResult:
    """Join one checked batch: the kernel and the schedule, chosen once.

    Without an ``executor``, or when the batch fits one of its morsels,
    this is a straight call of :func:`accurate_join` (``exact``) or
    :func:`approximate_join`, with ``tracer`` handed to the kernel.
    Otherwise the batch is cut into morsels that the executor's threads
    join with private partial results (Section 3.4 of the paper), merged
    by :func:`merge_join_results` inside a ``merge`` span; the morsel
    threads have no active dispatch span, so the ``probe`` / ``refine``
    spans are synthesized from the merged result's apportioned times.
    Every statistic (and, with ``materialize``, the pair set) equals the
    straight call's on the same inputs.

    ``entries`` are the batch's tagged entries when the caller already
    resolved them (the serving layer's hot-cell table): the kernels then
    decode them instead of probing ``store``, and morsels slice them like
    ``cell_ids``.

    ``observe`` is the serving layer's traffic recorder: the kernel calls
    it right after each ``store.probe`` (or on the given ``entries``) —
    once per batch, once per morsel — with the leaf ids and their entries
    (from the morsel threads, so it must be thread-safe).
    """
    if executor is None or len(cell_ids) <= executor.morsel_size:
        if exact:
            return accurate_join(
                store, lookup_table, cell_ids, polygons, lngs, lats,
                materialize=materialize, engine=engine, tracer=tracer,
                observe=observe, entries=entries,
            )
        return approximate_join(
            store, lookup_table, cell_ids, len(polygons),
            materialize=materialize, tracer=tracer, observe=observe,
            entries=entries,
        )

    def work(lo: int, hi: int) -> JoinResult:
        # The approximate join reads no coordinates (and may have none).
        part = join_batch(
            store, lookup_table, cell_ids[lo:hi], polygons,
            lngs[lo:hi] if exact else None, lats[lo:hi] if exact else None,
            exact=exact, materialize=materialize, engine=engine,
            observe=observe, entries=None if entries is None else entries[lo:hi],
        )
        if materialize:
            part.pair_points = part.pair_points + lo
        return part

    with Timer() as timer:
        parts = executor.map_morsels(len(cell_ids), work)
    with (
        tracer.span("merge", morsels=len(parts))
        if tracer is not None
        else nullcontext()
    ):
        merged = merge_join_results(
            parts,
            num_points=len(cell_ids),
            num_polygons=len(polygons),
            wall_seconds=timer.seconds,
            materialize=materialize,
        )
    if tracer is not None:
        tracer.emit("probe", merged.probe_seconds, morsels=len(parts))
        if merged.refine_seconds > 0.0:
            tracer.emit("refine", merged.refine_seconds, morsels=len(parts))
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
    describes (Section 3.4), run by :func:`join_batch` over a
    :class:`~repro.core.morsels.MorselExecutor` with a batch size suited
    to numpy-granularity work instead of the paper's 16-tuple batches.
    The accurate join runs when ``polygons`` (with ``lngs`` / ``lats``)
    is given, the approximate join otherwise.

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
    with MorselExecutor(num_threads, batch_size) as pool:
        return join_batch(
            store,
            lookup_table,
            cell_ids,
            # The approximate join reads only the polygon count.
            polygons if exact else (None,) * num_polygons,
            lngs,
            lats,
            exact=exact,
            materialize=materialize,
            engine=engine,
            executor=pool,
        )
