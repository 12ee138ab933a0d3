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

Two drivers produce bit-identical coverings on the same input:

* :func:`train_super_covering` — the production path: one vectorized
  interval search assigns every point to its covering cell, points are
  grouped per cell with ``np.argsort``, and splits are executed either in
  level-batched *rounds* (no budget: all pending splits classified in one
  pass of the build's one batched classifier, :mod:`repro.geo.relation` —
  the kernel the coverer and the precision refinement also run on) or off
  a heap (budgeted runs, where the
  stopping split must be well-defined).  ``order="arrival"`` replays the
  exact per-point split sequence — each split is triggered by the first
  unconsumed point that lands on its cell, so executing splits in trigger
  order IS arrival order; ``order="hot"`` splits the hottest cells first,
  so a cell budget is spent where traffic actually lands — the mode the
  online adaptation loop uses.
* :func:`train_super_covering_sequential` — the paper-literal one point at
  a time loop, kept as the parity oracle and the baseline the vectorized
  pass is benchmarked against (``python -m repro.bench adapt``).

Budget semantics (both drivers): a split is applied only when the
*post-split* cell count stays within ``max_cells``; the first split that
would overshoot stops training and sets ``budget_exhausted`` — the budget
is a hard memory bound, never exceeded by even one cell.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.cells.cell import bound_rects_for_cell_ids
from repro.cells.cellid import MAX_LEVEL, CellId
from repro.cells.vectorized import child_cell_ids, range_bounds_from_cell_ids
from repro.core.refs import PolygonRef, merge_refs
from repro.core.super_covering import SuperCovering
from repro.geo.polygon import Polygon
from repro.geo.relation import Relation, relations_for_pairs

#: Split-scheduling orders accepted by :func:`train_super_covering`.
TRAINING_ORDERS = ("arrival", "hot")


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
    parents: Sequence[tuple[int, Sequence[PolygonRef]]],
    polygons: Sequence[Polygon],
) -> list[list[tuple[CellId, tuple[PolygonRef, ...]]]]:
    """Re-classify the children of expensive cells against their polygons.

    ``parents`` are ``(raw id, refs)`` of disjoint cells.  All child rects
    come from one vectorized pass and each polygon classifies all of its
    ``(child, polygon)`` pairs in one call.  Per parent, returns the
    replacement children: fully contained becomes a true hit, still
    intersecting stays a candidate, disjoint is dropped; inherited true
    hits replicate unchanged; children left with no references are omitted.
    """
    child_raw = child_cell_ids(
        np.fromiter((raw for raw, _ in parents), dtype=np.uint64, count=len(parents))
    )
    rects = bound_rects_for_cell_ids(child_raw.ravel())
    true_refs = [tuple(ref for ref in refs if ref.interior) for _, refs in parents]
    pair_pids = [
        ref.polygon_id for _, refs in parents for ref in refs if not ref.interior
    ]
    pair_counts = [len(refs) - len(true) for (_, refs), true in zip(parents, true_refs)]
    # The children of parent ``slot`` are rects 4 * slot .. 4 * slot + 3.
    pair_slots = np.repeat(np.arange(len(parents), dtype=np.int64), pair_counts)
    codes = relations_for_pairs(
        polygons,
        rects,
        (4 * pair_slots[:, None] + np.arange(4)).ravel(),
        np.repeat(np.asarray(pair_pids, dtype=np.int64), 4),
    ).reshape(-1, 4).tolist()
    replacements = []
    start = 0
    for true, count, raws in zip(true_refs, pair_counts, child_raw.tolist()):
        pairs = list(zip(pair_pids[start:start + count], codes[start:start + count]))
        start += count
        children = []
        for child, raw in enumerate(raws):
            merged = merge_refs(
                true,
                [
                    PolygonRef(pid, row[child] == Relation.CONTAINED)
                    for pid, row in pairs
                    if row[child] != Relation.DISJOINT
                ],
            )
            if merged:
                children.append((CellId(raw), merged))
        replacements.append(children)
    return replacements


def classify_split(
    cell: CellId,
    refs: Sequence[PolygonRef],
    polygons: Sequence[Polygon],
) -> list[tuple[CellId, tuple[PolygonRef, ...]]]:
    """Re-classify one expensive cell's children against its polygons.

    An empty result means every candidate reference was a phantom
    (conflict resolution copied a coarse ancestor's reference onto a cell
    the polygon never touches — see the note in
    :mod:`repro.core.precision`).
    """
    return _classify_children([(cell.id, refs)], polygons)[0]


def split_expensive_cell(
    super_covering: SuperCovering,
    cell: CellId,
    refs: Sequence[PolygonRef],
    polygons: Sequence[Polygon],
) -> int:
    """Replace one expensive cell with its re-classified children.

    Returns the number of replacement cells inserted.  When every child
    drops all of its references (the cell's candidate refs were phantoms),
    the cell is left in place and ``0`` is returned — replacing it with
    nothing would silently erase the cell from the covering.
    """
    replacements = classify_split(cell, refs, polygons)
    if not replacements:
        return 0
    super_covering.replace_cell(cell, replacements)
    return len(replacements)


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


def _group_slices(sorted_slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end offsets of equal-value runs in a sorted slot array."""
    boundaries = np.nonzero(np.diff(sorted_slots))[0] + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    ends = np.concatenate([boundaries, np.asarray([len(sorted_slots)])])
    return starts, ends


#: One pending split: the cell (raw id + refs) and its training points,
#: ordered by arrival (original input index).
_PendingSplit = tuple[int, tuple[PolygonRef, ...], np.ndarray, np.ndarray]


def _splittable(raw_id: int, refs: tuple[PolygonRef, ...]) -> bool:
    if CellId(raw_id).level >= MAX_LEVEL:
        return False
    return any(not ref.interior for ref in refs)


def _distribute(
    replacements: Sequence[tuple[CellId, tuple[PolygonRef, ...]]],
    leaf_ids: np.ndarray,
    orig_idx: np.ndarray,
) -> Iterator[_PendingSplit]:
    """Assign a split group's remaining points to the replacement children.

    The first point of the group is the split's trigger and is consumed;
    the rest descend into whichever replacement child contains them
    (dropped regions and cheap children absorb their points silently, like
    the sequential walk).  Yields the still-splittable children.
    """
    if len(leaf_ids) <= 1:
        return
    rest_ids = leaf_ids[1:]
    rest_idx = orig_idx[1:]
    child_raw = np.fromiter(
        (child.id for child, _ in replacements),
        dtype=np.uint64,
        count=len(replacements),
    )
    lows, highs = range_bounds_from_cell_ids(child_raw)
    slots, hit = _assign_to_cells(rest_ids, lows, highs)
    kept = np.nonzero(hit)[0]
    if kept.size == 0:
        return
    regroup = np.argsort(slots[kept], kind="stable")
    kept = kept[regroup]
    kept_slots = slots[kept]
    starts, ends = _group_slices(kept_slots)
    for start, end in zip(starts, ends):
        child, child_refs = replacements[int(kept_slots[start])]
        if not _splittable(child.id, child_refs):
            continue
        selection = kept[start:end]
        yield child.id, child_refs, rest_ids[selection], rest_idx[selection]


def _initial_groups(
    super_covering: SuperCovering, ids: np.ndarray
) -> list[_PendingSplit]:
    """Group training points by containing covering cell (arrival order)."""
    cover_ids = np.fromiter(
        super_covering.raw_items().keys(),
        dtype=np.uint64,
        count=super_covering.num_cells,
    )
    cover_ids.sort()
    lows, highs = range_bounds_from_cell_ids(cover_ids)
    slots, hit = _assign_to_cells(ids, lows, highs)
    point_order = np.nonzero(hit)[0]
    if point_order.size == 0:
        return []
    grouping = np.argsort(slots[point_order], kind="stable")
    sorted_points = point_order[grouping]  # original indices, grouped by cell
    sorted_ids = ids[sorted_points]
    sorted_slots = slots[point_order][grouping]
    raw_items = super_covering.raw_items()
    groups: list[_PendingSplit] = []
    starts, ends = _group_slices(sorted_slots)
    for start, end in zip(starts, ends):
        raw = int(cover_ids[sorted_slots[start]])
        refs = raw_items[raw]
        if not _splittable(raw, refs):
            continue
        groups.append((raw, refs, sorted_ids[start:end], sorted_points[start:end]))
    return groups


# ----------------------------------------------------------------------
# Training drivers
# ----------------------------------------------------------------------


def _train_rounds(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    pending: list[_PendingSplit],
    report: TrainingReport,
) -> None:
    """Unbudgeted fast path: split every pending cell, one round per level.

    All pending splits of a round are independent (their cells are
    disjoint), so their child rectangles are computed in one vectorized
    pass and each polygon classifies all of its rects in one call.  The
    resulting covering is identical to executing the same splits one at a
    time — which is why this path is only taken without a cell budget
    (a budget makes the stopping split order-sensitive).
    """
    while pending:
        next_pending: list[_PendingSplit] = []
        for (raw, _, leaf_ids, orig_idx), replacements in zip(
            pending, _classify_children([entry[:2] for entry in pending], polygons)
        ):
            if not replacements:
                continue  # phantom candidates: keep the cell
            super_covering.replace_cell(CellId(raw), replacements)
            report.points_hit_expensive += 1
            report.cells_split += 1
            report.cells_added += len(replacements) - 1
            next_pending.extend(_distribute(replacements, leaf_ids, orig_idx))
        pending = next_pending


def _train_heap(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    pending: list[_PendingSplit],
    report: TrainingReport,
    max_cells: int,
    order: str,
) -> None:
    """Budgeted path: splits pop off a heap so the stopping split is exact.

    ``order="arrival"`` keys the heap by each split's trigger point (the
    first unconsumed point that landed on the cell), which replays the
    sequential per-point schedule exactly; ``order="hot"`` keys it by
    pending-point count so the budget goes to the hottest cells first.
    """
    heap: list[tuple] = []
    tiebreak = itertools.count()

    def push(entry: _PendingSplit) -> None:
        trigger = int(entry[3][0])
        key = trigger if order == "arrival" else (-len(entry[3]), trigger)
        heapq.heappush(heap, (key, next(tiebreak), entry))

    for entry in pending:
        push(entry)
    while heap:
        _, _, (raw, refs, leaf_ids, orig_idx) = heapq.heappop(heap)
        cell = CellId(raw)
        replacements = classify_split(cell, refs, polygons)
        if not replacements:
            continue  # phantom candidates: keep the cell, consume its points
        if super_covering.num_cells - 1 + len(replacements) > max_cells:
            report.budget_exhausted = True
            break
        super_covering.replace_cell(cell, replacements)
        report.points_hit_expensive += 1
        report.cells_split += 1
        report.cells_added += len(replacements) - 1
        for child_entry in _distribute(replacements, leaf_ids, orig_idx):
            push(child_entry)


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
        to :func:`train_super_covering_sequential`); ``"hot"`` splits the
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
    pending = _initial_groups(super_covering, ids)
    if not pending:
        return report
    if max_cells is None:
        _train_rounds(super_covering, polygons, pending, report)
    else:
        _train_heap(super_covering, polygons, pending, report, max_cells, order)
    return report


def train_super_covering_sequential(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    training_cell_ids: np.ndarray,
    max_cells: int | None = None,
) -> TrainingReport:
    """The paper-literal per-point training loop (parity/benchmark oracle).

    Semantically identical to ``train_super_covering(..., order="arrival")``
    — same covering, same report — but walks the covering once per point
    instead of batching, so it is the baseline the vectorized pass is
    measured against.
    """
    report = TrainingReport()
    report.points_processed = int(len(training_cell_ids))
    for raw in training_cell_ids:
        found = super_covering.find_containing(int(raw))
        if found is None:
            continue
        cell, refs = found
        if cell.level >= MAX_LEVEL:
            continue
        if all(ref.interior for ref in refs):
            continue  # cheap cell: solely true hits, nothing to gain
        replacements = classify_split(cell, refs, polygons)
        if not replacements:
            continue  # phantom candidates: keep the cell
        if (
            max_cells is not None
            and super_covering.num_cells - 1 + len(replacements) > max_cells
        ):
            report.budget_exhausted = True
            break
        super_covering.replace_cell(cell, replacements)
        report.points_hit_expensive += 1
        report.cells_split += 1
        report.cells_added += len(replacements) - 1
    return report


# ----------------------------------------------------------------------
# Solely-true-hit evaluation
# ----------------------------------------------------------------------


class SthEvaluator:
    """Reusable vectorized solely-true-hit evaluation for one covering.

    Snapshots the covering's interval representation and per-cell
    expensive flags once (the only Python-loop pass), so evaluating the
    STH rate of a query window is pure numpy afterwards — cheap enough for
    the adaptation controller to call per telemetry window.
    """

    def __init__(self, super_covering: SuperCovering):
        raw = super_covering.raw_items()
        ids = np.fromiter(raw.keys(), dtype=np.uint64, count=len(raw))
        expensive = np.fromiter(
            (any(not ref.interior for ref in refs) for refs in raw.values()),
            dtype=bool,
            count=len(raw),
        )
        sort = np.argsort(ids)
        self._ids = ids[sort]
        self._expensive = expensive[sort]
        if len(raw):
            self._lows, self._highs = range_bounds_from_cell_ids(self._ids)
        else:
            self._lows = self._highs = self._ids

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
