"""Index training with historical data points (Section 3.3.1).

The accurate join only pays for PIP tests when a point lands in an
*expensive* cell — one whose reference set contains at least one candidate
hit.  Training replays historical points against the super covering and,
whenever a point hits an expensive cell, replaces that cell with its (up
to) four direct children, re-classified against the referenced polygons.
Popular areas therefore end up approximated by a finer grid than unpopular
ones, raising the solely-true-hits rate exactly where query traffic lands.

Faithful to the paper:

* one training point splits the cell it hits by exactly one level — more
  robust against outliers than a full descent,
* repeated hits (from later training points) keep refining the children,
* refinement stops when a cell-count budget is exhausted.

The pass is vectorized end to end (:func:`train_super_covering`): one
interval search assigns every point to its covering cell, points are grouped
per cell with ``np.argsort``, and splits are executed either in
level-batched *rounds* (no budget: all pending splits classified in one
pass of the build's one batched classifier, :mod:`repro.geo.relation` — the
kernel the coverer and the precision refinement also run on — and applied
with one :meth:`SuperCovering.replace_cells` per round) or off a heap
(budgeted runs, where the stopping split must be well-defined; the running
cell count is tracked and one ``replace_cells`` applies every split at the
end).  ``order="arrival"`` replays the exact per-point split sequence — each
split is triggered by the first unconsumed point that lands on its cell, so
executing splits in trigger order IS arrival order; ``order="hot"`` splits
the hottest cells first, so a cell budget is spent where traffic actually
lands — the mode the online adaptation loop uses.  The paper-literal one
point at a time loop is the parity oracle in ``tests/oracles.py``.

Budget semantics: a split is applied only when the *post-split* cell count
stays within ``max_cells``; the first split that would overshoot stops
training and sets ``budget_exhausted`` — the budget is a hard memory bound,
never exceeded by even one cell.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.cells.cell import bound_rects_for_cell_ids
from repro.cells.cellid import MAX_LEVEL
from repro.cells.vectorized import (
    child_cell_ids,
    levels_from_cell_ids,
    range_bounds_from_cell_ids,
)
from repro.core.super_covering import (
    SuperCovering,
    candidate_counts,
    rows_from_entries,
    take_rows,
)
from repro.geo.polygon import Polygon
from repro.geo.relation import Relation, RelationTable, relations_for_pairs

#: Split-scheduling orders accepted by :func:`train_super_covering`.
TRAINING_ORDERS = ("arrival", "hot")

_CHILD_SLOTS = np.arange(4, dtype=np.int64)


@dataclass
class TrainingReport:
    """What a training pass did."""

    points_processed: int = 0
    points_hit_expensive: int = 0
    cells_split: int = 0
    cells_added: int = 0
    budget_exhausted: bool = False


# ----------------------------------------------------------------------
# Split primitives
# ----------------------------------------------------------------------


def _classify_children(
    parent_ids: np.ndarray,
    ref_offsets: np.ndarray,
    packed_refs: np.ndarray,
    table: RelationTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-classify the children of expensive cells against their polygons.

    The parents are disjoint cells with reference rows ``(ref_offsets,
    packed_refs)``.  All child rects come from one vectorized pass and one
    ``relations_for_pairs`` pass classifies every ``(child, polygon)`` pair:
    a candidate fully contained becomes a true hit, still intersecting
    stays a candidate, disjoint is dropped; inherited true hits replicate
    unchanged; a child left with no references is omitted.  Returns
    ``(replacements, child ids, child ref_offsets, child packed_refs)``:
    how many children replace each parent (0: every candidate was a
    phantom, the cell must be kept), and the children, parent by parent.
    """
    child_ids = child_cell_ids(parent_ids).ravel()
    rects = bound_rects_for_cell_ids(child_ids)
    parents = np.repeat(np.arange(len(parent_ids), dtype=np.int64), np.diff(ref_offsets))
    # The children of parent ``slot`` are rects 4 * slot .. 4 * slot + 3;
    # every reference starts out on all four.
    children = (4 * parents[:, None] + _CHILD_SLOTS).ravel()
    child_refs = np.repeat(packed_refs, 4)
    candidates = np.flatnonzero((child_refs & np.uint32(1)) == 0)
    codes = relations_for_pairs(
        table,
        rects,
        children[candidates],
        (child_refs[candidates] >> np.uint32(1)).astype(np.int64),
    )
    child_refs[candidates] |= (codes == Relation.CONTAINED).astype(np.uint32)
    keep = np.ones(len(child_refs), dtype=bool)
    keep[candidates] = codes != Relation.DISJOINT
    offsets, child_refs = rows_from_entries(
        children[keep], child_refs[keep], len(child_ids)
    )
    live = np.diff(offsets) > 0
    replacements = live.reshape(-1, 4).sum(axis=1)
    live = np.flatnonzero(live)
    return replacements, child_ids[live], *take_rows(offsets, child_refs, live)


# ----------------------------------------------------------------------
# Vectorized point bookkeeping
# ----------------------------------------------------------------------


def _assign_to_cells(
    cell_ids: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map leaf ids to slots of the disjoint intervals ``[lows, highs]``.

    Returns ``(slots, hit_mask)``; slots of missed points are undefined.
    """
    slots = np.searchsorted(lows, cell_ids, side="right").astype(np.int64) - 1
    clamped = np.clip(slots, 0, len(lows) - 1)
    hit = (slots >= 0) & (cell_ids <= highs[clamped])
    return clamped, hit


class _Pending(NamedTuple):
    """Pending splits: expensive cells (ascending ids, with their reference
    rows) and the training points on each, ordered by arrival."""

    cells: np.ndarray
    ref_offsets: np.ndarray
    packed_refs: np.ndarray
    point_offsets: np.ndarray  # points of cell i: [point_offsets[i], point_offsets[i + 1])
    point_ids: np.ndarray  # leaf ids
    point_order: np.ndarray  # arrival rank (original input index)


def _group_points(
    cells: np.ndarray,
    ref_offsets: np.ndarray,
    packed_refs: np.ndarray,
    point_ids: np.ndarray,
    point_order: np.ndarray,
) -> _Pending:
    """Group points by the splittable cell (of ascending, disjoint
    ``cells``) that contains them.

    A cell is splittable above the leaf level while it holds a candidate
    reference; points in cheap cells or outside every cell are dropped,
    like the per-point walk would.  The stable sort keeps each group in
    the order the points came in.
    """
    splittable = (candidate_counts(ref_offsets, packed_refs) > 0) & (
        levels_from_cell_ids(cells) < MAX_LEVEL
    )
    slots, hit = _assign_to_cells(point_ids, *range_bounds_from_cell_ids(cells))
    kept = np.flatnonzero(hit & splittable[slots])
    kept = kept[np.argsort(slots[kept], kind="stable")]
    rows, group_sizes = np.unique(slots[kept], return_counts=True)
    point_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(group_sizes, out=point_offsets[1:])
    return _Pending(
        cells[rows],
        *take_rows(ref_offsets, packed_refs, rows),
        point_offsets,
        point_ids[kept],
        point_order[kept],
    )


def _distribute(
    pending: _Pending,
    split: np.ndarray,
    child_ids: np.ndarray,
    child_offsets: np.ndarray,
    child_refs: np.ndarray,
) -> _Pending:
    """Hand the remaining points of split cells to the replacement children.

    The first point of each group is the split's trigger and is consumed;
    the rest descend into whichever replacement child contains them
    (dropped regions and cheap children absorb their points silently, like
    the sequential walk).  Returns the still-splittable children that
    received a point.
    """
    rest = np.repeat(split, np.diff(pending.point_offsets))
    rest[pending.point_offsets[:-1]] = False
    return _group_points(
        child_ids,
        child_offsets,
        child_refs,
        pending.point_ids[rest],
        pending.point_order[rest],
    )


# ----------------------------------------------------------------------
# Training drivers
# ----------------------------------------------------------------------


def _train_rounds(
    super_covering: SuperCovering,
    table: RelationTable,
    pending: _Pending,
    report: TrainingReport,
) -> None:
    """Unbudgeted fast path: split every pending cell, one round per level.

    All pending splits of a round are independent (their cells are
    disjoint), so their child rectangles are computed in one vectorized
    pass and classified in one ``relations_for_pairs`` pass.  The
    resulting covering is identical to executing the same splits one at a
    time — which is why this path is only taken without a cell budget
    (a budget makes the stopping split order-sensitive).
    """
    while len(pending.cells):
        replacements, *children = _classify_children(
            pending.cells, pending.ref_offsets, pending.packed_refs, table
        )
        split = replacements > 0  # phantom candidates: keep the cell
        super_covering.replace_cells(pending.cells[split], *children)
        num_split = int(np.count_nonzero(split))
        report.points_hit_expensive += num_split
        report.cells_split += num_split
        report.cells_added += int(replacements.sum()) - num_split
        pending = _distribute(pending, split, *children)


def _train_heap(
    super_covering: SuperCovering,
    table: RelationTable,
    pending: _Pending,
    report: TrainingReport,
    max_cells: int,
    order: str,
) -> None:
    """Budgeted path: splits pop off a heap so the stopping split is exact.

    ``order="arrival"`` keys the heap by each split's trigger point (the
    first unconsumed point that landed on the cell), which replays the
    sequential per-point schedule exactly; ``order="hot"`` keys it by
    pending-point count so the budget goes to the hottest cells first.
    The covering is rewritten once, at the end: cells that were split are
    removed, children that were not split again are added.
    """
    heap: list[tuple] = []
    tiebreak = itertools.count()

    def push(group: _Pending) -> None:
        """One heap entry (a single-cell ``_Pending``) per pending cell."""
        ref_bounds = group.ref_offsets.tolist()
        point_bounds = group.point_offsets.tolist()
        for slot in range(len(group.cells)):
            points = slice(point_bounds[slot], point_bounds[slot + 1])
            refs = group.packed_refs[ref_bounds[slot] : ref_bounds[slot + 1]]
            trigger = int(group.point_order[points.start])
            key = trigger if order == "arrival" else (points.start - points.stop, trigger)
            entry = _Pending(
                group.cells[slot : slot + 1],
                np.asarray([0, len(refs)], dtype=np.int64),
                refs,
                np.asarray([0, points.stop - points.start], dtype=np.int64),
                group.point_ids[points],
                group.point_order[points],
            )
            heapq.heappush(heap, (key, next(tiebreak), entry))

    push(pending)
    num_cells = super_covering.num_cells
    split_ids: list[int] = []
    produced: dict[int, np.ndarray] = {}  # child id -> packed refs
    while heap:
        _, _, entry = heapq.heappop(heap)
        replacements, child_ids, child_offsets, child_refs = _classify_children(
            entry.cells, entry.ref_offsets, entry.packed_refs, table
        )
        if not replacements[0]:
            continue  # phantom candidates: keep the cell, consume its points
        if num_cells - 1 + int(replacements[0]) > max_cells:
            report.budget_exhausted = True
            break
        num_cells += int(replacements[0]) - 1
        split_ids.append(int(entry.cells[0]))
        bounds = child_offsets.tolist()
        for raw, start, stop in zip(child_ids.tolist(), bounds, bounds[1:]):
            produced[raw] = child_refs[start:stop]
        report.points_hit_expensive += 1
        report.cells_split += 1
        report.cells_added += int(replacements[0]) - 1
        push(_distribute(entry, replacements > 0, child_ids, child_offsets, child_refs))
    if not split_ids:
        return
    # A split cell that an earlier split produced never was a cell of the
    # covering: it is neither removed nor added.
    removed = [raw for raw in split_ids if produced.pop(raw, None) is None]
    added_offsets = np.zeros(len(produced) + 1, dtype=np.int64)
    np.cumsum([len(refs) for refs in produced.values()], out=added_offsets[1:])
    super_covering.replace_cells(
        removed,
        np.fromiter(produced, dtype=np.uint64, count=len(produced)),
        added_offsets,
        np.concatenate(list(produced.values())),
    )


def train_super_covering(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    training_cell_ids: np.ndarray,
    max_cells: int | None = None,
    order: str = "arrival",
) -> TrainingReport:
    """Adapt the super covering to an expected point distribution.

    Parameters
    ----------
    training_cell_ids:
        Leaf cell ids of historical points (uint64 array), e.g. produced by
        :func:`repro.cells.cell_ids_from_lat_lng_arrays`.
    max_cells:
        Optional cell budget (the paper's memory budget).  Enforced on the
        post-split count: a split that would push the covering past the
        budget is not applied; it sets ``budget_exhausted`` and stops
        training.
    order:
        ``"arrival"`` replays splits in point-arrival order (bit-identical
        to the paper's one point at a time loop); ``"hot"`` splits the
        cells with the most pending training points first, so a budget is
        spent on the hottest regions — used by online retraining.  Without
        a budget both orders produce the same covering (splits of disjoint
        cells commute), so the round-batched fast path is taken.
    """
    if order not in TRAINING_ORDERS:
        raise ValueError(f"order must be one of {TRAINING_ORDERS}, got {order!r}")
    report = TrainingReport()
    ids = np.ascontiguousarray(np.asarray(training_cell_ids, dtype=np.uint64))
    report.points_processed = int(len(ids))
    if len(ids) == 0 or super_covering.num_cells == 0:
        return report
    pending = _group_points(
        super_covering.cell_ids,
        super_covering.ref_offsets,
        super_covering.packed_refs,
        ids,
        np.arange(len(ids), dtype=np.int64),
    )
    # Children only ever reference their parents' candidate polygons.
    refs = pending.packed_refs
    table = RelationTable(polygons, refs[(refs & np.uint32(1)) == 0] >> np.uint32(1))
    if max_cells is None:
        _train_rounds(super_covering, table, pending, report)
    else:
        _train_heap(super_covering, table, pending, report, max_cells, order)
    return report


# ----------------------------------------------------------------------
# Solely-true-hit evaluation
# ----------------------------------------------------------------------


class SthEvaluator:
    """Reusable vectorized solely-true-hit evaluation for one covering.

    Snapshots the covering's interval representation and per-cell
    expensive flags once, so evaluating the STH rate of a query window is
    a binary search — cheap enough for the adaptation controller to call
    per telemetry window.
    """

    def __init__(self, super_covering: SuperCovering):
        self._ids = super_covering.cell_ids
        self._expensive = super_covering.candidate_counts() > 0
        self._lows, self._highs = range_bounds_from_cell_ids(self._ids)

    @property
    def num_cells(self) -> int:
        return len(self._ids)

    def needs_refinement(self, query_cell_ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which points hit an expensive (candidate) cell."""
        queries = np.asarray(query_cell_ids, dtype=np.uint64)
        if queries.size == 0 or len(self._ids) == 0:
            return np.zeros(queries.size, dtype=bool)
        slots, hit = _assign_to_cells(queries, self._lows, self._highs)
        return hit & self._expensive[slots]

    def rate(self, query_cell_ids: np.ndarray) -> float:
        """Fraction of points skipping refinement (hit nothing or all-true)."""
        queries = np.asarray(query_cell_ids, dtype=np.uint64)
        if queries.size == 0:
            return 1.0
        refined = int(np.count_nonzero(self.needs_refinement(queries)))
        return 1.0 - refined / queries.size


def solely_true_hit_rate(
    super_covering: SuperCovering, query_cell_ids: np.ndarray
) -> float:
    """Paper's STH metric: fraction of points skipping the refinement phase.

    A point skips refinement when it misses the index entirely or hits a
    cell whose references are all true hits.  One-shot convenience over
    :class:`SthEvaluator`; build the evaluator yourself to amortize the
    covering snapshot across windows.
    """
    return SthEvaluator(super_covering).rate(query_cell_ids)
