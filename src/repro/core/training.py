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
  level-batched *rounds* (no budget: all pending splits classified with
  batched geometry, the fast path) or off a heap (budgeted runs, where the
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
from repro.cells.vectorized import range_bounds_from_cell_ids
from repro.core.refs import PolygonRef, merge_refs
from repro.core.super_covering import SuperCovering
from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon

#: Split-scheduling orders accepted by :func:`train_super_covering`.
TRAINING_ORDERS = ("arrival", "hot")

_DISJOINT = 0
_INTERSECTS = 1
_CONTAINED = 2

#: Rect/edge pairs evaluated per classification chunk (bounds each
#: broadcast temporary in ``_RectClassifier.relations`` to a few MiB).
_CLASSIFY_CHUNK_PAIRS = 1 << 21


@dataclass
class TrainingReport:
    """What a training pass did."""

    points_processed: int = 0
    points_hit_expensive: int = 0
    cells_split: int = 0
    cells_added: int = 0
    budget_exhausted: bool = False


# ----------------------------------------------------------------------
# Batched rect classification
# ----------------------------------------------------------------------


class _RectClassifier:
    """Batched ``rect_polygon_relation`` for one polygon (training hot path).

    Precomputes the polygon's edge geometry once (memoized on the polygon
    object via ``Polygon._train_cache``) and classifies whole batches of
    child rectangles in a single vectorized pass, instead of paying
    per-call numpy dispatch for every (child, polygon) pair.  Decisions are
    the same as :func:`repro.geo.relation.rect_polygon_relation`: a rect
    with a ring vertex strictly inside or an edge touching it INTERSECTS;
    otherwise it is CONTAINED or DISJOINT by its center's PIP test.
    """

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
        """Relation codes for ``R`` rectangles given as coordinate arrays.

        Evaluated in rect chunks bounding the (rects x edges) broadcast
        temporaries to a few MiB — a round-batched training pass can hand
        one complex polygon thousands of rects at once.  Chunking cannot
        change results: every operation is element-wise per rect row.
        """
        chunk = max(1, _CLASSIFY_CHUNK_PAIRS // max(1, len(self.x0)))
        if len(lng_lo) > chunk:
            codes = np.empty(len(lng_lo), dtype=np.int8)
            for start in range(0, len(lng_lo), chunk):
                stop = start + chunk
                codes[start:stop] = self.relations(
                    lng_lo[start:stop],
                    lng_hi[start:stop],
                    lat_lo[start:stop],
                    lat_hi[start:stop],
                )
            return codes
        codes = np.zeros(len(lng_lo), dtype=np.int8)
        mbr = self.mbr
        alive = (
            (lng_hi >= mbr.lng_lo)
            & (lng_lo <= mbr.lng_hi)
            & (lat_hi >= mbr.lat_lo)
            & (lat_lo <= mbr.lat_hi)
        )
        if not alive.any():
            return codes
        lo_x = lng_lo[:, None]
        hi_x = lng_hi[:, None]
        lo_y = lat_lo[:, None]
        hi_y = lat_hi[:, None]
        # Every ring vertex starts exactly one edge, so the edge-start
        # arrays are the vertex set.  A vertex strictly inside the rect
        # means the boundary enters it.
        vertex_inside = (
            (self.x0[None, :] > lo_x)
            & (self.x0[None, :] < hi_x)
            & (self.y0[None, :] > lo_y)
            & (self.y0[None, :] < hi_y)
        ).any(axis=1)
        # Separating-axis segment/rect test (same math as EdgeSet.touching).
        overlap = (
            (self.max_x[None, :] >= lo_x)
            & (self.min_x[None, :] <= hi_x)
            & (self.max_y[None, :] >= lo_y)
            & (self.min_y[None, :] <= hi_y)
        )
        rel_lo_y = lo_y - self.y0[None, :]
        rel_hi_y = hi_y - self.y0[None, :]
        rel_lo_x = lo_x - self.x0[None, :]
        rel_hi_x = hi_x - self.x0[None, :]
        dx = self.dx[None, :]
        dy = self.dy[None, :]
        cross_ll = dx * rel_lo_y - dy * rel_lo_x
        cross_lr = dx * rel_lo_y - dy * rel_hi_x
        cross_ul = dx * rel_hi_y - dy * rel_lo_x
        cross_ur = dx * rel_hi_y - dy * rel_hi_x
        all_positive = (cross_ll > 0) & (cross_lr > 0) & (cross_ul > 0) & (cross_ur > 0)
        all_negative = (cross_ll < 0) & (cross_lr < 0) & (cross_ul < 0) & (cross_ur < 0)
        touching = (overlap & ~(all_positive | all_negative)).any(axis=1)
        boundary = vertex_inside | touching
        codes[alive & boundary] = _INTERSECTS
        interior = np.nonzero(alive & ~boundary)[0]
        if interior.size:
            # No boundary contact: wholly inside or wholly outside; decide
            # by the rect center (vectorized over the surviving rects).
            centers_lng = (lng_lo[interior] + lng_hi[interior]) / 2.0
            centers_lat = (lat_lo[interior] + lat_hi[interior]) / 2.0
            inside = contains_points(self.polygon, centers_lng, centers_lat)
            codes[interior[inside]] = _CONTAINED
        return codes


def _rect_classifier(polygon: Polygon) -> _RectClassifier:
    classifier = polygon._train_cache
    if classifier is None:
        classifier = _RectClassifier(polygon)
        polygon._train_cache = classifier
    return classifier


# ----------------------------------------------------------------------
# Split primitives
# ----------------------------------------------------------------------


def _child_cell_ids(raw_id: int) -> np.ndarray:
    """The four children of a (non-leaf) cell id, ascending (uint64)."""
    lsb = raw_id & -raw_id
    step = lsb >> 2
    base = raw_id - 3 * step
    return np.asarray(
        [base, base + 2 * step, base + 4 * step, base + 6 * step],
        dtype=np.uint64,
    )


def _assemble_replacements(
    child_raw: np.ndarray,
    true_refs: tuple[PolygonRef, ...],
    candidate_pids: Sequence[int],
    codes_by_pid: dict[int, np.ndarray],
) -> list[tuple[CellId, tuple[PolygonRef, ...]]]:
    """Merge per-polygon relation codes into per-child reference sets."""
    replacements: list[tuple[CellId, tuple[PolygonRef, ...]]] = []
    for slot in range(4):
        child_refs: list[PolygonRef] = []
        for pid in candidate_pids:
            code = codes_by_pid[pid][slot]
            if code == _CONTAINED:
                child_refs.append(PolygonRef(pid, True))
            elif code == _INTERSECTS:
                child_refs.append(PolygonRef(pid, False))
        merged = merge_refs(true_refs, child_refs)
        if merged:
            replacements.append((CellId(int(child_raw[slot])), merged))
    return replacements


def classify_split(
    cell: CellId,
    refs: Sequence[PolygonRef],
    polygons: Sequence[Polygon],
) -> list[tuple[CellId, tuple[PolygonRef, ...]]]:
    """Re-classify one expensive cell's children against its polygons.

    Children are classified per candidate polygon: fully contained becomes
    a true hit, still intersecting stays a candidate, disjoint is dropped;
    inherited true hits replicate unchanged.  Children left with no
    references are omitted, so an empty result means every candidate
    reference was a phantom (conflict resolution copied a coarse
    ancestor's reference onto a cell the polygon never touches — see the
    note in :mod:`repro.core.precision`).
    """
    true_refs = tuple(ref for ref in refs if ref.interior)
    candidate_pids = [ref.polygon_id for ref in refs if not ref.interior]
    child_raw = _child_cell_ids(cell.id)
    lng_lo, lng_hi, lat_lo, lat_hi = bound_rects_for_cell_ids(child_raw)
    codes_by_pid = {
        pid: _rect_classifier(polygons[pid]).relations(lng_lo, lng_hi, lat_lo, lat_hi)
        for pid in candidate_pids
    }
    return _assemble_replacements(child_raw, true_refs, candidate_pids, codes_by_pid)


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
        parent_raw = np.fromiter(
            (entry[0] for entry in pending), dtype=np.uint64, count=len(pending)
        )
        lsb = parent_raw & (~parent_raw + np.uint64(1))
        step = lsb >> np.uint64(2)
        base = parent_raw - np.uint64(3) * step
        child_raw = (
            base[:, None]
            + (np.arange(4, dtype=np.uint64) * np.uint64(2))[None, :] * step[:, None]
        )
        lng_lo, lng_hi, lat_lo, lat_hi = bound_rects_for_cell_ids(child_raw.ravel())
        by_pid: dict[int, list[int]] = {}
        for slot, (_, refs, _, _) in enumerate(pending):
            for ref in refs:
                if not ref.interior:
                    by_pid.setdefault(ref.polygon_id, []).append(slot)
        codes_by_entry: list[dict[int, np.ndarray]] = [{} for _ in pending]
        for pid, slots in by_pid.items():
            rect_index = (
                np.repeat(np.asarray(slots, dtype=np.int64) * 4, 4)
                + np.tile(np.arange(4, dtype=np.int64), len(slots))
            )
            codes = _rect_classifier(polygons[pid]).relations(
                lng_lo[rect_index],
                lng_hi[rect_index],
                lat_lo[rect_index],
                lat_hi[rect_index],
            )
            for position, slot in enumerate(slots):
                codes_by_entry[slot][pid] = codes[position * 4 : position * 4 + 4]
        next_pending: list[_PendingSplit] = []
        for slot, (raw, refs, leaf_ids, orig_idx) in enumerate(pending):
            true_refs = tuple(ref for ref in refs if ref.interior)
            candidate_pids = [ref.polygon_id for ref in refs if not ref.interior]
            replacements = _assemble_replacements(
                child_raw[slot], true_refs, candidate_pids, codes_by_entry[slot]
            )
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
