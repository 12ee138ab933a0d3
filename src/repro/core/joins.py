"""The point-polygon join algorithms (Listing 3 of the paper).

Both joins are index nested-loop joins: probe the cell store with every
point's leaf cell id, which yields the point's *row* of the store's
:class:`~repro.core.rows.RowTable` (the store's distinct tagged entries,
decoded once when it was built or attached), and

* **approximate join** — count every reference as a join pair.  True
  hits are exact; candidate hits may be false positives whose distance
  from the polygon is bounded by the index's precision bound.
* **accurate join** — count true hits directly and send candidate hits to
  the refinement phase: every candidate pair PIP-tested against its
  polygon's latitude bucket by the one ragged crossing kernel of
  :mod:`repro.geo.refine`.

Following the paper's evaluation methodology, the default "count mode"
aggregates points per polygon instead of materializing pairs, and it
does so per distinct row: a batch's points are counted per row, and a
row's references are added once, weighted by that count — no entry is
decoded per point.  Pairs are expanded only where they are needed: the
accurate join pairs the points of ``expensive`` rows with their candidate
polygons for refinement, and ``materialize=True`` returns every pair.

Every join starts in the same driver, :func:`join_batch`: the one
function that picks the kernel (exact or approximate) and the schedule
(one straight call, or — for an offline call with ``num_threads > 1`` —
morsels of the batch handed to a short-lived thread pool by
:func:`~repro.core.morsels.map_morsels`).  An index view, the serving
layer (always the straight call) and the paper-facing
:func:`parallel_count_join` call it, behind the one batch check
(:func:`check_batch`) the public doors share.

Every parallel evaluation — threads over morsels of one batch (the
driver) or processes over spatial shards (:mod:`repro.serve.sharded`) —
joins each point exactly once and keeps private partial results, so all
of them end in the same :func:`merge_join_results`: the only place a
``JoinResult`` is built from other ``JoinResult``s.

The two kernels take as ``store`` anything with a ``probe_rows(cell_ids)
-> rows`` method and the ``rows`` table those index, decoded against
the store's own lookup table (ACT, the B-tree, the sorted vector, ...),
which is how the evaluation runs every physical representation the
paper compares through the same probe, count and refinement code.  An
index's own store is always the ACT.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.core.morsels import OFFLINE_MORSEL_POINTS, map_morsels
from repro.core.rows import RowTable, ragged_positions
from repro.core.rows import decode_entries as decode_entries
from repro.geo.polygon import Polygon
from repro.geo.refine import RefinementEngine
from repro.util.timing import Timer


class CellStore(Protocol):
    """The probe interface every physical representation implements:
    the row of every leaf cell id, and the row table those rows index."""

    rows: RowTable

    def probe_rows(self, query_ids: np.ndarray) -> np.ndarray: ...


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


def _count_rows(
    table: RowTable, rows: np.ndarray, num_polygons: int, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points per polygon over the first ``sizes[r]`` references of each
    row ``r``, counted per distinct row of the batch.

    Returns ``(counts, present, points)``: the ``int64`` counts, the
    distinct rows of ``rows`` (ascending) and the batch's points in each.
    """
    per_row = np.bincount(rows, minlength=len(table))
    # A boolean nonzero is a fraction of an integer one's cost.
    present = per_row.astype(bool).nonzero()[0]
    points = per_row[present]
    taken = sizes[present]
    refs = ragged_positions(table.starts[present], taken)
    # Weighted, bincount counts in float64: exact below 2**53 points.
    counts = np.bincount(table.pids[refs], points.repeat(taken), num_polygons)
    return counts.astype(np.int64), present, points


def _expand(
    table: RowTable, points: np.ndarray, first: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(point, polygon id)`` pairs: point ``points[i]`` with each of
    the ``sizes[i]`` references of ``table`` from ``first[i]`` on."""
    return np.repeat(points, sizes), table.pids[ragged_positions(first, sizes)]


def approximate_join(
    store: CellStore,
    cell_ids: np.ndarray,
    num_polygons: int,
    *,
    materialize: bool = False,
    tracer=None,
    observe=None,
    rows: np.ndarray | None = None,
) -> JoinResult:
    """Approximate join: candidate hits count as hits (no PIP tests).

    Counts per distinct row of the store's row table: a row's references
    are added once, weighted by the batch's points in that row; pairs
    are expanded only with ``materialize`` (point by point, each point's
    true hits first, then ascending polygon ids).

    ``tracer`` (an optional :class:`~repro.obs.trace.Tracer`) receives
    the already-measured probe phase as a child span of whatever dispatch
    span is active in the calling thread — no extra clock reads.
    ``observe`` and ``rows`` are :func:`join_batch`'s.
    """
    with Timer() as probe_timer:
        if rows is None:
            rows = store.probe_rows(cell_ids)
        table = store.rows
        if observe is not None:
            observe(cell_ids, rows)
        counts, present, points = _count_rows(table, rows, num_polygons, table.sizes)
        num_pairs = int(points @ table.sizes[present])
        num_true = int(points @ table.true_counts[present])
    if tracer is not None:
        tracer.emit("probe", probe_timer.seconds, points=len(cell_ids))
    result = JoinResult(
        num_points=len(cell_ids),
        counts=counts,
        num_pairs=num_pairs,
        num_true_hit_pairs=num_true,
        num_candidate_pairs=num_pairs - num_true,
        solely_true_hits=len(cell_ids),  # refinement never runs
        probe_seconds=probe_timer.seconds,
    )
    if materialize:
        result.pair_points, result.pair_polygons = _expand(
            table, np.arange(len(rows)), table.starts[rows], table.sizes[rows]
        )
    return result


def accurate_join(
    store: CellStore,
    cell_ids: np.ndarray,
    polygons: Sequence[Polygon],
    lngs: np.ndarray,
    lats: np.ndarray,
    *,
    materialize: bool = False,
    engine: RefinementEngine | None = None,
    tracer=None,
    observe=None,
    rows: np.ndarray | None = None,
) -> JoinResult:
    """Accurate join: candidate hits are refined with PIP tests.

    True hits are counted per distinct row of the store's row table,
    never expanded; only the points whose row is ``expensive`` (holds a
    candidate reference) are paired with their candidate polygons, and
    those pairs go to the refinement engine.  ``materialize`` expands
    the true-hit pairs too (point by point, ascending polygon ids),
    followed by the accepted candidate pairs.

    ``engine`` is normally the snapshot's prebuilt refinement engine
    (``ProbeView.refiner``); when omitted an ephemeral one is created
    over ``polygons`` — the packed bucket rows are memoized on the
    polygon objects, so it pays one concatenate, not a re-bucketing.
    ``tracer`` (an optional :class:`~repro.obs.trace.Tracer`) receives
    the already-measured probe and refine phases as child spans of
    whatever dispatch span is active in the calling thread.
    ``observe`` and ``rows`` are :func:`join_batch`'s.
    """
    if engine is None:
        engine = RefinementEngine(polygons)
    with Timer() as probe_timer:
        if rows is None:
            rows = store.probe_rows(cell_ids)
        table = store.rows
        if observe is not None:
            observe(cell_ids, rows)
        counts, present, points = _count_rows(
            table, rows, len(polygons), table.true_counts
        )
        num_true = int(points @ table.true_counts[present])
        # A row's candidate references follow its true hits.
        cand_points = np.flatnonzero(table.expensive[rows])
        cand_rows = rows[cand_points]
        first = table.starts[cand_rows] + table.true_counts[cand_rows]
        cand_pairs = _expand(
            table, cand_points, first, table.starts[cand_rows + 1] - first
        )
    with Timer() as refine_timer:
        keep_points, keep_pids, num_pip, num_refined = engine.refine(
            *cand_pairs, None, lngs, lats
        )
        counts += np.bincount(keep_pids, minlength=len(polygons))
    if tracer is not None:
        tracer.emit("probe", probe_timer.seconds, points=len(cell_ids))
        tracer.emit("refine", refine_timer.seconds, pip_tests=int(num_pip))
    result = JoinResult(
        num_points=len(cell_ids),
        counts=counts,
        num_pairs=num_true + len(keep_points),
        num_true_hit_pairs=num_true,
        num_candidate_pairs=num_pip,
        num_pip_tests=num_pip,
        solely_true_hits=len(cell_ids) - num_refined,
        probe_seconds=probe_timer.seconds,
        refine_seconds=refine_timer.seconds,
    )
    if materialize:
        true_points, true_pids = _expand(
            table, np.arange(len(rows)), table.starts[rows], table.true_counts[rows]
        )
        result.pair_points = np.concatenate((true_points, keep_points))
        result.pair_polygons = np.concatenate((true_pids, keep_pids))
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
    cell_ids: np.ndarray,
    polygons: Sequence[Polygon | None],
    lngs: np.ndarray,
    lats: np.ndarray,
    *,
    exact: bool,
    materialize: bool = False,
    engine: RefinementEngine | None = None,
    num_threads: int = 1,
    morsel_size: int = OFFLINE_MORSEL_POINTS,
    tracer=None,
    observe=None,
    rows: np.ndarray | None = None,
) -> JoinResult:
    """Join one checked batch: the kernel and the schedule, chosen once.

    With one thread, or when the batch fits one morsel, this is a
    straight call of :func:`accurate_join` (``exact``) or
    :func:`approximate_join`.  Otherwise the batch is cut into morsels of
    ``morsel_size`` points that ``num_threads`` threads join with private
    partial results (Section 3.4 of the paper), merged by
    :func:`merge_join_results`.  Every statistic (and, with
    ``materialize``, the pair set) equals the straight call's on the same
    inputs.  ``num_threads < 1`` raises ``ValueError``, whatever the
    batch size.

    The serving layer's hooks apply to the straight call only, the one
    schedule a served batch takes: ``tracer`` receives the kernel's
    phase spans; ``rows`` are the batch's rows of ``store.rows`` when
    the caller already resolved them (the hot-cell table), counted
    instead of probing ``store``; ``observe`` is the traffic recorder,
    called with the leaf ids and their rows right after the probe.
    """
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    if morsel_size < 1:
        raise ValueError(f"morsel_size must be >= 1, got {morsel_size}")
    if num_threads == 1 or len(cell_ids) <= morsel_size:
        if exact:
            return accurate_join(
                store, cell_ids, polygons, lngs, lats,
                materialize=materialize, engine=engine, tracer=tracer,
                observe=observe, rows=rows,
            )
        return approximate_join(
            store, cell_ids, len(polygons),
            materialize=materialize, tracer=tracer, observe=observe,
            rows=rows,
        )

    def work(lo: int, hi: int) -> JoinResult:
        # The approximate join reads no coordinates (and may have none).
        part = join_batch(
            store, cell_ids[lo:hi], polygons,
            lngs[lo:hi] if exact else None, lats[lo:hi] if exact else None,
            exact=exact, materialize=materialize, engine=engine,
        )
        if materialize:
            part.pair_points = part.pair_points + lo
        return part

    with Timer() as timer:
        parts = map_morsels(len(cell_ids), work, num_threads, morsel_size)
    return merge_join_results(
        parts,
        num_points=len(cell_ids),
        num_polygons=len(polygons),
        wall_seconds=timer.seconds,
        materialize=materialize,
    )


def parallel_count_join(
    store: CellStore,
    cell_ids: np.ndarray,
    num_polygons: int,
    num_threads: int,
    *,
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
    describes (Section 3.4), run by :func:`join_batch` with a batch size
    suited to numpy-granularity work instead of the paper's 16-tuple
    batches.  The accurate join runs when ``polygons`` (with ``lngs`` /
    ``lats``) is given, the approximate join otherwise.

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
    return join_batch(
        store,
        cell_ids,
        # The approximate join reads only the polygon count.
        polygons if exact else (None,) * num_polygons,
        lngs,
        lats,
        exact=exact,
        materialize=materialize,
        engine=engine,
        num_threads=num_threads,
        morsel_size=batch_size,
    )
