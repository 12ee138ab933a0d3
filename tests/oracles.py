"""Parity oracles: the scalar one-cell-at-a-time build kernels, and the
stage-by-stage lat/lng -> cell id pipeline.

Until 1.12.0 the first were the production coverer, relation test and
precision descent.  The build now classifies whole rounds of cells through
``repro.geo.relation.relations_for_pairs``; the scalar versions live on here
so the property tests can assert the batched kernels agree with them cell
for cell (``tests/test_build_parity.py``, ``tests/test_relation.py``).
Until 1.30.0 that pass was one per-polygon broadcast classifier call per
distinct polygon; it lives on here as :class:`RectClassifier` (and
:func:`relations_per_polygon`), which the bucketed pass matches code for
code.

Until 1.14.0 the super covering was a dict of reference tuples with two
merges (a bulk sweep and the paper's Listing-1 insert), three gap tilers
and a per-point sequential trainer next to the batched one.  The covering
is now three sorted arrays with one merge sweep and one tiler
(``repro.core.super_covering.merge_cells``,
``repro.cells.vectorized.tile_leaf_ranges``); the Listing-1 insert
(:class:`ListingOneCovering`), the scalar tilers,
:func:`train_super_covering_sequential` and its one-cell split helpers
(:func:`classify_split`, :func:`split_expensive_cell`) live on here.

Until 1.30.0 ``repro.cells.cell.bound_rects_for_cell_ids`` projected every
corner through three six-way ``np.choose`` calls in one unchunked pass; it
lives on here as :func:`bound_rects_choose`, which ``tests/test_vectorized.py``
holds the chunked flat-gather projection against, bit for bit.

Until 1.13.0 the second was ``repro.cells.vectorized``: one function and a
set of temporaries per stage, a boolean-masked scatter per cube face, a
shift-and-mask Hilbert walk.  The production kernel is now one in-place
pass; ``tests/test_vectorized.py`` asserts it returns the same ids.

Until 1.35.0 the Hilbert walk of ``repro.cells.vectorized`` took eight
steps over *byte lanes*: the nibbles of i and j spread into the bytes of
one ``uint64`` per point, one gather from the 1024-entry ``WALK`` table
per step.  It now takes four byte-pair steps through ``WALK16``; the
byte-lane walk lives on here as :func:`byte_lane_leaf_ids_from_face_ij`,
which ``tests/test_vectorized.py`` holds ``leaf_ids_from_face_ij``
against.

Until 1.15.0 ``repro.core.joins.refine_candidates_masks`` — the historical
per-polygon-mask refinement loop — lived under ``src/`` because ``python -m
repro.bench refine`` timed it.  That runner is retired; the loop lives on
here as the oracle ``tests/test_refine.py`` holds ``RefinementEngine.refine``
against, element for element and in order.

Until 1.18.0 ``AdaptiveCellTrie._build`` materialised every extended key
(``_extend_keys``) and found each depth's nodes with ``np.unique`` over
them.  The build now works on the sorted cells — adjacent prefixes, slot
runs; the key-materialising construction lives on here as
:func:`act_pool_by_key_extension`, which ``tests/test_act.py`` holds the
pool, the face trees and the lookup table against, bit for bit.

Until 1.34.0 an ACT slot was tagged (2 tag bits: pointer or one of three
value forms) and ``AdaptiveCellTrie._probe_impl`` untangled the tag per
read, copying values out and compacting its lanes once fewer than a
quarter were live.  The slot is now signed (a child base, or minus a row
of the trie's entry table) and the descent one full-width loop; the
tagged descent lives on here as :func:`tagged_descent_probe` (over
:func:`tagged_pool`, the tagged form of a signed pool), which
``tests/test_act.py`` holds ``probe`` / ``probe_instrumented`` against.

Until 1.40.0 the ACT probe read a face tree's root node and then its
child as two levels.  It now reads both in one gather from a two-level
root table derived from them (``fanout ** 2`` slots per face tree); the
per-level loop lives on here as :func:`per_level_probe_rows`, which
``tests/test_act.py`` holds ``probe_rows`` against, row for row.

Until 1.27.0 ``OverlayCellStore.probe`` merged every lane: each distinct
``(base entry, delta entry)`` pair of the batch went through the decode,
merge and re-encode.  The store now keeps the base row of every lane a
write cannot change; the all-lanes merge lives on here as
:func:`overlay_refs_all_lanes` (each lane's reference set, decoded and
merged from scratch), which ``tests/test_dynamic.py`` holds the store
against, lane for lane.

Until 1.37.0 the join kernels decoded every point's entry, and the
adaptation loop classified entries by their tag bits with
``expensive_entries``.  Stores now probe to rows of a
:class:`~repro.core.rows.RowTable` decoded once per store, whose
``expensive`` flag replaced it; :func:`expensive_entries` lives on here as
the parity oracle of that flag (``tests/test_adaptive.py``,
``tests/test_joins.py``), and :func:`decode_join` is the per-point
decode join the by-row kernels are held against (``tests/test_joins.py``).
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.cells.cell import _st_to_uv_array, bound_rect_from_face_ij, cell_bound_rect
from repro.cells.cellid import MAX_LEVEL as MAX_CELL_LEVEL
from repro.cells.cellid import NUM_FACES, CellId
from repro.cells.hilbert import LOOKUP_BITS, LOOKUP_POS, SWAP_MASK
from repro.cells.projections import MAX_SIZE
from repro.cells.coverer import CovererOptions
from repro.cells.metrics import EARTH_RADIUS_METERS, MAX_EDGE_DERIV, level_for_max_diag_meters
from repro.cells.cellid import cell_difference
from repro.cells.vectorized import WALK, face_ij_from_leaf_ids, levels_from_cell_ids
from repro.core.act import _NO_PREFIX
from repro.core.lookup_table import TAG_OFFSET, TAG_ONE_REF, TAG_TWO_REFS, LookupTable, offset_counts
from repro.core.refs import PolygonRef, merge_refs
from repro.core.rows import decode_entries
from repro.core.super_covering import SuperCovering
from repro.core.training import TrainingReport, _classify_children
from repro.geo.edgeset import EdgeSet
from repro.geo.pip import contains_point, contains_points
from repro.geo.polygon import Polygon
from repro.geo.rect import Rect
from repro.geo.relation import Relation, RelationTable

# ----------------------------------------------------------------------
# Scalar rect/polygon relation
# ----------------------------------------------------------------------


def _any_vertex_strictly_inside(rect: Rect, lngs: np.ndarray, lats: np.ndarray) -> bool:
    return bool(
        np.any(
            (lngs > rect.lng_lo)
            & (lngs < rect.lng_hi)
            & (lats > rect.lat_lo)
            & (lats < rect.lat_hi)
        )
    )


def rect_polygon_relation(rect: Rect, polygon: Polygon) -> Relation:
    """Classify one ``rect`` against ``polygon``, one numpy pass per ring."""
    if rect.is_empty or not rect.intersects(polygon.mbr):
        return Relation.DISJOINT
    # A ring vertex strictly inside the rect means the boundary enters it.
    for ring in polygon.rings:
        if _any_vertex_strictly_inside(rect, ring.lngs, ring.lats):
            return Relation.INTERSECTS
    if EdgeSet([polygon], [0]).touching(rect).any():
        return Relation.INTERSECTS
    # No boundary contact: the rect is wholly inside or wholly outside.
    lng, lat = rect.center
    if contains_point(polygon, lng, lat):
        return Relation.CONTAINED
    return Relation.DISJOINT


class RectClassifier:
    """Batched rect-vs-polygon relations for one polygon: every rect
    broadcast against every edge.

    Until 1.30.0 the production classifier (``_RectClassifier``, memoized
    per polygon); ``relations_for_pairs`` now decides a whole round in one
    bucketed pass and must match this one code for code
    (``tests/test_relation.py``).
    """

    #: Rect/edge pairs evaluated per chunk of the broadcast.
    chunk_pairs = 1 << 21

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
        """``Relation`` codes (int8) for rectangles given as coordinate arrays."""
        codes = np.zeros(len(lng_lo), dtype=np.int8)
        mbr = self.mbr
        alive = np.nonzero(
            (lng_hi >= mbr.lng_lo)
            & (lng_lo <= mbr.lng_hi)
            & (lat_hi >= mbr.lat_lo)
            & (lat_lo <= mbr.lat_hi)
        )[0]
        if alive.size == 0:
            return codes
        lo_x = lng_lo[alive]
        hi_x = lng_hi[alive]
        lo_y = lat_lo[alive]
        hi_y = lat_hi[alive]
        boundary = np.zeros(alive.size, dtype=bool)
        chunk = max(1, self.chunk_pairs // max(1, len(self.x0)))
        for start in range(0, alive.size, chunk):
            rows = slice(start, start + chunk)
            rect, edge = np.nonzero(
                (self.max_x[None, :] >= lo_x[rows, None])
                & (self.min_x[None, :] <= hi_x[rows, None])
                & (self.max_y[None, :] >= lo_y[rows, None])
                & (self.min_y[None, :] <= hi_y[rows, None])
            )
            rect += start
            x0 = self.x0[edge]
            y0 = self.y0[edge]
            dx = self.dx[edge]
            dy = self.dy[edge]
            rel_lo_x = lo_x[rect] - x0
            rel_hi_x = hi_x[rect] - x0
            rel_lo_y = lo_y[rect] - y0
            rel_hi_y = hi_y[rect] - y0
            vertex_inside = (rel_lo_x < 0) & (rel_hi_x > 0) & (rel_lo_y < 0) & (rel_hi_y > 0)
            cross_ll = dx * rel_lo_y - dy * rel_lo_x
            cross_lr = dx * rel_lo_y - dy * rel_hi_x
            cross_ul = dx * rel_hi_y - dy * rel_lo_x
            cross_ur = dx * rel_hi_y - dy * rel_hi_x
            one_sided = (
                (cross_ll > 0) & (cross_lr > 0) & (cross_ul > 0) & (cross_ur > 0)
            ) | (
                (cross_ll < 0) & (cross_lr < 0) & (cross_ul < 0) & (cross_ur < 0)
            )
            boundary[rect[vertex_inside | ~one_sided]] = True
        codes[alive[boundary]] = Relation.INTERSECTS
        uniform = alive[~boundary]
        if uniform.size:
            centers_lng = (lng_lo[uniform] + lng_hi[uniform]) / 2.0
            centers_lat = (lat_lo[uniform] + lat_hi[uniform]) / 2.0
            inside = contains_points(self.polygon, centers_lng, centers_lat)
            codes[uniform[inside]] = Relation.CONTAINED
        return codes


def relations_per_polygon(
    polygons: Sequence[Polygon],
    rects: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    rect_index: np.ndarray,
    polygon_ids: np.ndarray,
) -> np.ndarray:
    """``relations_for_pairs`` as it was until 1.30.0: one
    :class:`RectClassifier` call per distinct polygon."""
    codes = np.empty(len(polygon_ids), dtype=np.int8)
    for pid in np.unique(polygon_ids).tolist():
        group = np.flatnonzero(polygon_ids == pid)
        rows = rect_index[group]
        codes[group] = RectClassifier(polygons[pid]).relations(
            *(bound[rows] for bound in rects)
        )
    return codes


# ----------------------------------------------------------------------
# Heap coverer
# ----------------------------------------------------------------------


def heap_covering(
    polygon: Polygon, options: CovererOptions, interior: bool
) -> list[CellId]:
    """The priority-queue coverer, one scalar classification per child."""
    # Heap entries: (level, cell id, relation) — coarsest cells first so
    # the budget is spent where subdividing refines the most area.
    heap: list[tuple[int, int, Relation]] = []
    result: list[CellId] = []

    def classify(cell: CellId) -> Relation:
        return rect_polygon_relation(cell_bound_rect(cell), polygon)

    for face in range(NUM_FACES):
        cell = CellId.face_cell(face)
        relation = classify(cell)
        if relation != Relation.DISJOINT:
            heapq.heappush(heap, (0, cell.id, relation))
    while heap:
        level, raw_id, relation = heapq.heappop(heap)
        cell = CellId(raw_id)
        if relation == Relation.CONTAINED and level >= options.min_level:
            result.append(cell)
            continue
        if level >= options.max_level:
            if not interior:
                result.append(cell)
            continue
        if len(result) + len(heap) + 4 > options.max_cells:
            # Budget exhausted: stop refining.  Boundary cells join the
            # covering (it must keep covering) but are dropped from an
            # interior covering (it must stay interior).
            if not interior:
                result.append(cell)
            continue
        for child in cell.children():
            child_relation = classify(child)
            if child_relation != Relation.DISJOINT:
                heapq.heappush(heap, (level + 1, child.id, child_relation))
    return normalize_covering(result)


def normalize_covering(cells: list[CellId]) -> list[CellId]:
    """Sort, deduplicate, drop covered cells, and merge sibling groups
    (``CellId`` object arithmetic, one merge pass per level).

    The result contains no two conflicting cells (neither contains the
    other), matching the S2 notion of a *normalized* covering the paper
    relies on for binary-search lookups.
    """
    ordered = sorted(set(cells), key=lambda c: c.id)
    # Drop cells contained in another.  Cell ranges form a laminar family
    # (nested or disjoint, never partially overlapping), so after sorting by
    # id it suffices to compare each cell against the top of a stack: an
    # ancestor whose id sorts earlier absorbs the new cell; a descendant
    # whose id sorts earlier gets popped by its later-sorting ancestor.
    pruned: list[CellId] = []
    for cell in ordered:
        if pruned and pruned[-1].contains(cell):
            continue
        while pruned and cell.contains(pruned[-1]):
            pruned.pop()
        pruned.append(cell)
    # Iteratively merge complete sibling groups into parents.
    merged = True
    cells_now = pruned
    while merged:
        merged = False
        next_cells: list[CellId] = []
        index = 0
        while index < len(cells_now):
            cell = cells_now[index]
            if cell.level > 0 and index + 3 < len(cells_now):
                parent = cell.parent()
                group = cells_now[index:index + 4]
                if [c.id for c in group] == [ch.id for ch in parent.children()]:
                    next_cells.append(parent)
                    index += 4
                    merged = True
                    continue
            next_cells.append(cell)
            index += 1
        cells_now = next_cells
    return cells_now


# ----------------------------------------------------------------------
# Recursive precision descent
# ----------------------------------------------------------------------


def classify_descendants(
    cell: CellId,
    candidate_pids: Sequence[int],
    polygons_by_id: dict[int, Polygon],
    target_level: int,
) -> list[tuple[CellId, list[PolygonRef]]]:
    """Split ``cell`` down to ``target_level`` around polygon boundaries.

    Returns disjoint descendant cells (coarser where uniform) with the
    re-classified references for ``candidate_pids``.  Cells with no
    remaining references are omitted.  Descends depth-first, propagating
    the subset of polygon edges that can still touch each subtree.
    """
    edge_set = EdgeSet(
        [polygons_by_id[pid] for pid in candidate_pids], list(candidate_pids)
    )
    face, root_i, root_j = cell.to_face_ij()
    results: list[tuple[CellId, list[PolygonRef]]] = []
    # Stack frames carry the polygons already known to fully contain the
    # subtree ("inherited" true hits): once a polygon's boundary stops
    # touching a cell, its edges leave the propagated subset, so the
    # containment verdict must ride along explicitly.
    stack: list[tuple[int, int, int, EdgeSet, tuple[int, ...]]] = [
        (cell.level, root_i, root_j, edge_set, ())
    ]

    def emit(level: int, i: int, j: int, refs: list[PolygonRef]) -> None:
        emitted = CellId.from_face_ij(face, i, j)
        if level < emitted.level:
            emitted = emitted.parent(level)
        results.append((emitted, refs))

    while stack:
        level, i, j, edges, inherited = stack.pop()
        size = 1 << (MAX_CELL_LEVEL - level)
        rect = bound_rect_from_face_ij(face, i, j, size, level)
        touching = edges.touching(rect)
        sub = edges.subset(touching)
        new_inherited = inherited
        if len(sub) != len(edges):
            # Polygons whose boundary no longer reaches this cell are
            # uniform here: inside -> true hit from now on, outside ->
            # dropped.  (Unchanged edge count means unchanged pid set.)
            touched_pids = sub.unique_pids()
            resolved = edges.unique_pids() - touched_pids
            if resolved:
                lng, lat = rect.center
                gained = [
                    pid
                    for pid in resolved
                    if contains_point(polygons_by_id[pid], lng, lat)
                ]
                if gained:
                    new_inherited = tuple(inherited) + tuple(gained)
        if not len(sub):
            if new_inherited:
                emit(level, i, j, [PolygonRef(pid, True) for pid in sorted(new_inherited)])
            continue
        if level >= target_level:
            refs = [PolygonRef(pid, True) for pid in sorted(new_inherited)]
            refs += [PolygonRef(pid, False) for pid in sorted(sub.unique_pids())]
            emit(level, i, j, refs)
            continue
        half = size >> 1
        stack.append((level + 1, i, j, sub, new_inherited))
        stack.append((level + 1, i + half, j, sub, new_inherited))
        stack.append((level + 1, i, j + half, sub, new_inherited))
        stack.append((level + 1, i + half, j + half, sub, new_inherited))
    return results


def refine_to_precision_descent(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    precision_meters: float,
) -> int:
    """``refine_to_precision`` driven by :func:`classify_descendants`."""
    target_level = level_for_max_diag_meters(precision_meters)
    polygons_by_id = {pid: polygon for pid, polygon in enumerate(polygons)}
    coarse = [
        (cell, refs)
        for cell, refs in super_covering.items()
        if any(not ref.interior for ref in refs)
    ]
    working = covering_dict(super_covering)
    for cell, refs in coarse:
        true_refs = tuple(ref for ref in refs if ref.interior)
        candidate_pids = [ref.polygon_id for ref in refs if not ref.interior]
        replacements = []
        for descendant, new_refs in classify_descendants(
            cell, candidate_pids, polygons_by_id, target_level
        ):
            replacements.append((descendant, merge_refs(true_refs, new_refs)))
        # True hits inherited from the original cell must keep covering the
        # *whole* cell even where every candidate polygon is absent.
        if true_refs:
            covered = {d.id for d, _ in replacements}
            for gap in uncovered_children(cell, covered):
                replacements.append((gap, true_refs))
        del working[cell.id]
        working.update((d.id, new_refs) for d, new_refs in replacements if new_refs)
    _install(super_covering, working)
    return target_level


# ----------------------------------------------------------------------
# The dict-of-tuples super covering: Listing-1 insert, scalar gap tilers,
# the per-point trainer
# ----------------------------------------------------------------------


def covering_dict(covering: SuperCovering) -> dict[int, tuple[PolygonRef, ...]]:
    """A covering as ``{cell id: refs}`` (what tests compare)."""
    return {cell.id: refs for cell, refs in covering.items()}


def covering_from_dict(raw: dict[int, Sequence[PolygonRef]]) -> SuperCovering:
    """A covering holding exactly the (already disjoint) cells of ``raw``."""
    cells = sorted(raw)
    offsets = np.zeros(len(cells) + 1, dtype=np.int64)
    packed: list[int] = []
    for row, raw_id in enumerate(cells):
        packed.extend(ref.packed() for ref in raw[raw_id])
        offsets[row + 1] = len(packed)
    return SuperCovering.attach(
        np.asarray(cells, dtype=np.uint64), offsets, np.asarray(packed, dtype=np.uint32)
    )


def _install(covering: SuperCovering, raw: dict[int, Sequence[PolygonRef]]) -> None:
    """Make ``covering`` hold the cells of ``raw`` (oracles work on a dict
    and convert at the boundary)."""
    twin = covering_from_dict(raw)
    covering._install(twin.cell_ids, twin.ref_offsets, twin.packed_refs)


def cells_covering_leaf_range(lo: int, hi: int) -> Iterator[CellId]:
    """Minimal cells exactly tiling the inclusive leaf-id interval [lo, hi].

    Greedy: at each step emit the largest aligned cell starting at ``lo``
    that does not extend past ``hi``.
    """
    while lo <= hi:
        cell = CellId(lo)  # lo is a leaf id (odd)
        while cell.level > 0:
            parent = cell.parent()
            if parent.range_min().id == lo and parent.range_max().id <= hi:
                cell = parent
            else:
                break
        yield cell
        lo = cell.range_max().id + 2


def uncovered_children(cell: CellId, covered_ids: set[int]) -> list[CellId]:
    """Maximal descendants of ``cell`` disjoint from ``covered_ids`` cells.

    ``covered_ids`` contains disjoint descendants of ``cell``; the result
    tiles the remainder with the coarsest possible cells.
    """
    if not covered_ids:
        return [cell]
    sorted_ids = sorted(covered_ids)
    gaps: list[CellId] = []

    def descend(current: CellId) -> None:
        if current.id in covered_ids:
            return
        lo = current.range_min().id
        hi = current.range_max().id
        index = bisect.bisect_left(sorted_ids, lo)
        if index >= len(sorted_ids) or sorted_ids[index] > hi:
            gaps.append(current)
            return
        for child in current.children():
            descend(child)

    descend(cell)
    return gaps


class ListingOneCovering:
    """The paper's incremental one-cell-at-a-time insertion (Listing 1)
    over a ``{cell id: refs}`` dict plus a bisect-maintained id list."""

    def __init__(self, raw: dict[int, tuple[PolygonRef, ...]] | None = None) -> None:
        self.refs: dict[int, tuple[PolygonRef, ...]] = dict(raw or {})
        self._sorted_ids: list[int] = sorted(self.refs)

    def insert(self, cell: CellId, refs: Iterable[PolygonRef]) -> None:
        """Insert one covering cell, resolving conflicts precision-preservingly."""
        new_refs = merge_refs(refs)
        raw_id = cell.id
        existing = self.refs.get(raw_id)
        if existing is not None:
            # Duplicate cell: merge the reference lists.
            self.refs[raw_id] = merge_refs(existing, new_refs)
            return
        ancestor = self._find_existing_ancestor(cell)
        if ancestor is not None:
            # Existing c1 contains the new c2: replace c1 by c2 + difference.
            ancestor_refs = self._remove(ancestor)
            for piece in cell_difference(ancestor, cell):
                # Pieces are disjoint from everything else (the ancestor
                # occupied this range exclusively), so add directly.
                self._add(piece, ancestor_refs)
            self._add(cell, merge_refs(ancestor_refs, new_refs))
            return
        if self._has_descendants(cell):
            # New cell contains existing cells: descend, splitting around
            # them.  Children without descendants insert whole, which
            # reproduces exactly the difference-based resolution.
            for child in cell.children():
                if child.id in self.refs or self._has_descendants(child):
                    self.insert(child, new_refs)
                else:
                    self._add(child, new_refs)
            return
        self._add(cell, new_refs)

    def insert_covering(
        self,
        polygon_id: int,
        covering: Sequence[CellId],
        interior_covering: Sequence[CellId],
    ) -> None:
        """Insert one polygon's approximations (covering first, Listing 1)."""
        for cell in covering:
            self.insert(cell, (PolygonRef(polygon_id, False),))
        for cell in interior_covering:
            self.insert(cell, (PolygonRef(polygon_id, True),))

    def _add(self, cell: CellId, refs: tuple[PolygonRef, ...]) -> None:
        self.refs[cell.id] = refs
        bisect.insort(self._sorted_ids, cell.id)

    def _remove(self, cell: CellId) -> tuple[PolygonRef, ...]:
        refs = self.refs.pop(cell.id)
        del self._sorted_ids[bisect.bisect_left(self._sorted_ids, cell.id)]
        return refs

    def _find_existing_ancestor(self, cell: CellId) -> CellId | None:
        for level in range(cell.level - 1, -1, -1):
            ancestor = cell.parent(level)
            if ancestor.id in self.refs:
                return ancestor
        return None

    def _has_descendants(self, cell: CellId) -> bool:
        lo = cell.range_min().id
        hi = cell.range_max().id
        index = bisect.bisect_left(self._sorted_ids, lo)
        return index < len(self._sorted_ids) and self._sorted_ids[index] <= hi


def _classify_one(
    cell: CellId, refs: Sequence[PolygonRef], polygons: Sequence[Polygon]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The children the trainer's batched classifier replaces one cell
    with, as ``(ids, ref_offsets, packed_refs)``."""
    packed = np.asarray([ref.packed() for ref in refs], dtype=np.uint32)
    return _classify_children(
        np.asarray([cell.id], dtype=np.uint64),
        np.asarray([0, len(packed)], dtype=np.int64),
        packed,
        RelationTable(polygons, packed >> np.uint32(1)),
    )[1:]


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
    child_ids, offsets, child_refs = _classify_one(cell, refs, polygons)
    bounds = offsets.tolist()
    return [
        (
            CellId(raw),
            tuple(map(PolygonRef.from_packed, child_refs[start:stop].tolist())),
        )
        for raw, start, stop in zip(child_ids.tolist(), bounds, bounds[1:])
    ]


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
    child_ids, offsets, child_refs = _classify_one(cell, refs, polygons)
    if len(child_ids):
        super_covering.replace_cells([cell.id], child_ids, offsets, child_refs)
    return len(child_ids)


def train_super_covering_sequential(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    training_cell_ids: np.ndarray,
    max_cells: int | None = None,
) -> TrainingReport:
    """The paper-literal per-point training loop.

    Semantically identical to ``train_super_covering(..., order="arrival")``
    — same covering, same report — but walks the covering once per point
    instead of batching.
    """
    working = covering_dict(super_covering)
    report = TrainingReport()
    report.points_processed = int(len(training_cell_ids))
    for raw in training_cell_ids:
        leaf = CellId(int(raw))
        cell = next(
            (
                ancestor
                for ancestor in (leaf.parent(level) for level in range(MAX_CELL_LEVEL, -1, -1))
                if ancestor.id in working
            ),
            None,
        )
        if cell is None or cell.level >= MAX_CELL_LEVEL:
            continue
        refs = working[cell.id]
        if all(ref.interior for ref in refs):
            continue  # cheap cell: solely true hits, nothing to gain
        replacements = classify_split(cell, refs, polygons)
        if not replacements:
            continue  # phantom candidates: keep the cell
        if max_cells is not None and len(working) - 1 + len(replacements) > max_cells:
            report.budget_exhausted = True
            break
        del working[cell.id]
        working.update((child.id, child_refs) for child, child_refs in replacements)
        report.points_hit_expensive += 1
        report.cells_split += 1
        report.cells_added += len(replacements) - 1
    _install(super_covering, working)
    return report


# ----------------------------------------------------------------------
# Staged lat/lng -> cell id pipeline
# ----------------------------------------------------------------------


def _staged_xyz_from_lat_lng(lats: np.ndarray, lngs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-sphere coordinates for degree arrays."""
    phi = np.radians(lats)
    theta = np.radians(lngs)
    cos_phi = np.cos(phi)
    return cos_phi * np.cos(theta), cos_phi * np.sin(theta), np.sin(phi)


def face_uv_from_xyz(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized cube-face projection."""
    ax = np.abs(x)
    ay = np.abs(y)
    az = np.abs(z)
    face = np.where(
        (ax >= ay) & (ax >= az),
        np.where(x > 0, 0, 3),
        np.where(ay >= az, np.where(y > 0, 1, 4), np.where(z > 0, 2, 5)),
    ).astype(np.int64)
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (unum, uden, vnum, vden) in enumerate((
        (y, x, z, x),        # face 0
        (-x, y, z, y),       # face 1
        (-x, z, -y, z),      # face 2
        (z, x, y, x),        # face 3
        (z, y, -x, y),       # face 4
        (-y, z, -x, z),      # face 5
    )):
        sel = face == f
        if np.any(sel):
            u[sel] = unum[sel] / uden[sel]
            v[sel] = vnum[sel] / vden[sel]
    return face, u, v


def st_from_uv(u: np.ndarray) -> np.ndarray:
    """Vectorized quadratic uv -> st transform."""
    # abs() keeps both sqrt arguments valid; the sign pick happens after.
    root = 0.5 * np.sqrt(1.0 + 3.0 * np.abs(u))
    return np.where(u >= 0.0, root, 1.0 - root)


def ij_from_st(s: np.ndarray) -> np.ndarray:
    """Vectorized discretization to leaf coordinates."""
    ij = np.floor(s * MAX_SIZE).astype(np.int64)
    return np.clip(ij, 0, MAX_SIZE - 1)


def staged_leaf_ids_from_face_ij(face: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert translation: (face, i, j) -> leaf cell ids.

    Mirrors the 8-chunk table walk of ``hilbert.leaf_pos_from_ij`` with a
    shift, a mask and a ``LOOKUP_POS`` gather per chunk, all in int64.
    """
    face = np.asarray(face, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    pos = np.zeros(face.shape, dtype=np.int64)
    bits = face & SWAP_MASK
    lookup = LOOKUP_POS.astype(np.int64)
    chunk_mask = (1 << LOOKUP_BITS) - 1
    for k in range(7, -1, -1):
        index = bits
        index = index + (((i >> (k * LOOKUP_BITS)) & chunk_mask) << (LOOKUP_BITS + 2))
        index = index + (((j >> (k * LOOKUP_BITS)) & chunk_mask) << 2)
        looked = lookup[index]
        pos |= (looked >> 2) << (k * 2 * LOOKUP_BITS)
        bits = looked & 3
    ids = (face.astype(np.uint64) << np.uint64(61)) \
        | (pos.astype(np.uint64) << np.uint64(1)) \
        | np.uint64(1)
    return ids


_BYTE_LANE_SPREAD = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F))
)


def _nibbles_to_byte_lanes(value: np.ndarray) -> np.ndarray:
    """Spread the eight nibbles of a 32-bit value to the low nibbles of
    the eight bytes of a ``uint64``."""
    x = value.astype("<u8")
    for shift, mask in _BYTE_LANE_SPREAD:
        x |= x << shift
        x &= mask
    return x


def byte_lane_leaf_ids_from_face_ij(
    face: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """(face, i, j) -> leaf cell ids by the 8-step byte-lane walk (the
    production walk before 1.35.0): byte k of ``steps`` holds chunk k of i
    and j interleaved (``iiiijjjj``), and each step reads its byte through
    a ``uint8`` view, looks ``orientation | byte`` up in ``WALK`` and
    stores the position byte through a ``uint8`` view of the result."""
    face = np.asarray(face, dtype=np.intp)
    shape = face.shape
    n = face.size
    steps = _nibbles_to_byte_lanes(np.asarray(i).reshape(n))
    steps <<= np.uint64(LOOKUP_BITS)
    steps |= _nibbles_to_byte_lanes(np.asarray(j).reshape(n))
    step_bytes = steps.view(np.uint8).reshape(n, 8)
    face = face.reshape(n)
    ids = np.empty(n, dtype="<u8")
    id_bytes = ids.view(np.uint8).reshape(n, 8)
    orientation = (face & SWAP_MASK) << 8
    index = np.empty(n, dtype=np.intp)
    for k in range(7, -1, -1):
        np.bitwise_or(step_bytes[:, k], orientation, out=index)
        orientation = WALK[index]
        id_bytes[:, k] = orientation  # the cast keeps the position byte
        orientation &= 0x300
    ids <<= np.uint64(1)
    ids |= (face.astype(np.uint64) << np.uint64(61)) | np.uint64(1)
    return ids.astype(np.uint64, copy=False).reshape(shape)


def staged_cell_ids_from_lat_lng_arrays(lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Leaf cell ids (uint64) for parallel lat/lng degree arrays, one
    stage at a time (the production pipeline before 1.13.0)."""
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    x, y, z = _staged_xyz_from_lat_lng(lats, lngs)
    face, u, v = face_uv_from_xyz(x, y, z)
    i = ij_from_st(st_from_uv(u))
    j = ij_from_st(st_from_uv(v))
    return staged_leaf_ids_from_face_ij(face, i, j)


# ----------------------------------------------------------------------
# The np.choose bound-rect projection
# ----------------------------------------------------------------------


def _face_uv_to_xyz_choose(
    face: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``projections.face_uv_to_xyz`` over per-element faces, one
    six-way ``np.choose`` per coordinate."""
    ones = np.ones_like(u)
    return (
        np.choose(face, (ones, -u, -u, -ones, v, v)),
        np.choose(face, (u, ones, -v, -v, -ones, u)),
        np.choose(face, (v, v, ones, -u, -u, -ones)),
    )


def bound_rects_choose(
    raw_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``repro.cells.cell.bound_rects_for_cell_ids`` as it was until
    1.30.0: one unchunked pass, the projection through ``np.choose``."""
    ids = np.asarray(raw_ids, dtype=np.uint64)
    if ids.size == 0:
        empty = np.zeros(0, dtype=np.float64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    lsb = ids & (~ids + np.uint64(1))
    level = levels_from_cell_ids(ids)
    size = (np.int64(1) << (np.int64(30) - level)).astype(np.int64)
    leaf_min = ids - (lsb - np.uint64(1))
    face, i, j = face_ij_from_leaf_ids(leaf_min)
    size_mask = ~(size - 1)
    i = i & size_mask
    j = j & size_mask
    s = (i + np.array([[0], [1], [1], [0]]) * size) / MAX_SIZE
    t = (j + np.array([[0], [0], [1], [1]]) * size) / MAX_SIZE
    x, y, z = _face_uv_to_xyz_choose(face, _st_to_uv_array(s), _st_to_uv_array(t))
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    lng = np.degrees(np.arctan2(y, x))
    min_lat, max_lat = lat.min(axis=0), lat.max(axis=0)
    min_lng, max_lng = lng.min(axis=0), lng.max(axis=0)
    wrap = (max_lng - min_lng) > 180.0
    half_face = MAX_SIZE // 2
    covers_center = (
        (i <= half_face) & (half_face <= i + size)
        & (j <= half_face) & (half_face <= j + size)
    )
    north = covers_center & (face == 2)
    south = covers_center & (face == 5)
    max_lat = np.where(north, 90.0, max_lat)
    min_lat = np.where(south, -90.0, min_lat)
    full_lng = wrap | north | south
    min_lng = np.where(full_lng, -180.0, min_lng)
    max_lng = np.where(full_lng, 180.0, max_lng)
    theta = MAX_EDGE_DERIV / np.exp2(level.astype(np.float64))
    pad_lat = (2.0 * (theta * theta / 8.0) * EARTH_RADIUS_METERS) / (
        EARTH_RADIUS_METERS * np.pi / 180.0
    )
    max_abs_lat = np.minimum(
        89.9, np.maximum(np.abs(min_lat), np.abs(max_lat)) + pad_lat
    )
    pad_lng = pad_lat / np.maximum(0.01, np.cos(np.radians(max_abs_lat)))
    return min_lng - pad_lng, max_lng + pad_lng, min_lat - pad_lat, max_lat + pad_lat


# ----------------------------------------------------------------------
# The per-polygon-mask refinement loop
# ----------------------------------------------------------------------


def refine_candidates_masks(
    point_idx: np.ndarray,
    pids: np.ndarray,
    is_true: np.ndarray,
    polygons: Sequence[Polygon],
    lngs: np.ndarray,
    lats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The historical per-polygon-mask refinement (reference oracle).

    Scans one boolean mask over the full candidate array per distinct
    polygon — O(unique polygons x candidates) — and brute-force tests
    every edge per PIP call.  Same contract as
    ``RefinementEngine.refine``: ``(kept point indices, kept polygon ids,
    number of PIP tests, number of distinct refined points)``, true hits
    first, then accepted candidates in candidate order.
    """
    cand = ~is_true
    cand_points = point_idx[cand]
    cand_pids = pids[cand]
    accepted = np.zeros(len(cand_points), dtype=bool)
    for pid in np.unique(cand_pids):
        sel = cand_pids == pid
        pts = cand_points[sel]
        accepted[sel] = contains_points(polygons[int(pid)], lngs[pts], lats[pts])
    keep_points = np.concatenate([point_idx[is_true], cand_points[accepted]])
    keep_pids = np.concatenate([pids[is_true], cand_pids[accepted]])
    return keep_points, keep_pids, int(len(cand_points)), int(np.unique(cand_points).size)


# ----------------------------------------------------------------------
# the key-materialising ACT build
# ----------------------------------------------------------------------

_FACE_SHIFT = 61


def _extend_keys(
    covering: SuperCovering, delta: int, face_values: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode entries and apply key extension: ``(key ids, tagged entries,
    value depths)``; level-0 cells go to ``face_values``."""
    ids = covering.cell_ids
    entries = LookupTable().encode_covering(covering)
    lsb = ids & (~ids + np.uint64(1))
    levels = levels_from_cell_ids(ids)
    if np.any(levels < 0):
        raise ValueError("invalid cell id in super covering")
    remainders = levels % delta
    targets = levels + np.where(remainders > 0, delta - remainders, 0)
    if int(targets.max(initial=0)) > MAX_CELL_LEVEL:
        bad_level = int(levels[targets > MAX_CELL_LEVEL][0])
        raise ValueError(
            f"cell at level {bad_level} cannot be key-extended to a multiple "
            f"of {delta} within {MAX_CELL_LEVEL} levels; cap covering max_level at "
            f"{MAX_CELL_LEVEL - delta + 1} or below for this fanout"
        )
    face_level = levels == 0
    if np.any(face_level):
        for raw_id, entry in zip(ids[face_level], entries[face_level]):
            face_values[int(raw_id) >> _FACE_SHIFT] = int(entry)
        keep = ~face_level
        ids, entries, levels, targets, lsb = (
            ids[keep], entries[keep], levels[keep], targets[keep], lsb[keep]
        )
    # A cell at level L with target T > L becomes the 4^(T-L) descendants
    # at level T; descendant k's id is
    # id - lsb + lsb' + 2 * lsb' * k   with lsb' = 1 << (2*(30-T)).
    expansion = np.left_shift(np.int64(1), 2 * (targets - levels)).astype(np.int64)
    total = int(expansion.sum())
    out_entries = np.repeat(entries, expansion)
    out_depths = np.repeat((targets // delta).astype(np.int64), expansion)
    new_lsb = np.uint64(1) << (
        np.uint64(2) * (np.uint64(MAX_CELL_LEVEL) - targets.astype(np.uint64))
    )
    out_base = np.repeat(ids - lsb + new_lsb, expansion)  # descendant 0
    out_step = np.repeat(np.uint64(2) * new_lsb, expansion)
    starts = np.cumsum(expansion) - expansion
    counter = np.arange(total, dtype=np.int64) - np.repeat(starts, expansion)
    return out_base + out_step * counter.astype(np.uint64), out_entries, out_depths


def act_pool_by_key_extension(
    covering: SuperCovering, fanout_bits: int
) -> tuple[np.ndarray, dict[int, tuple[int, int, int, int]], dict[int, int], int]:
    """The ACT build as it ran until 1.18.0: every extended key
    materialised, one ``np.unique`` over them per depth.

    Returns ``(pool, face_trees, face_values, num_keys)`` with
    ``face_trees[face] = (root_base, prefix_shift, prefix_value,
    prefix_depth)``; entries are encoded against a fresh lookup table,
    laid out as the trie's own (one encoder).
    """
    delta = fanout_bits // 2
    fanout = 1 << fanout_bits
    face_values: dict[int, int] = {}
    key_ids, key_entries, value_depths = _extend_keys(covering, delta, face_values)
    face_trees: dict[int, tuple[int, int, int, int]] = {}
    if len(key_ids) == 0:
        return np.zeros(fanout, dtype=np.uint64), face_trees, face_values, 0
    faces = (key_ids >> np.uint64(_FACE_SHIFT)).astype(np.int64)
    max_depth = int(value_depths.max())
    depth_prefixes: list[np.ndarray] = []
    depth_bases: list[int] = []
    next_base = fanout  # node 0 is the sentinel
    for depth in range(max_depth):
        shift = np.uint64(_FACE_SHIFT - 2 * delta * depth)
        prefixes = np.unique(key_ids[value_depths > depth] >> shift)
        depth_prefixes.append(prefixes)
        depth_bases.append(next_base)
        next_base += len(prefixes) * fanout
    pool = np.zeros(next_base, dtype=np.uint64)

    def node_base(depth: int, prefixes: np.ndarray) -> np.ndarray:
        index = np.searchsorted(depth_prefixes[depth], prefixes)
        return depth_bases[depth] + index.astype(np.int64) * fanout

    slot_mask = np.uint64(fanout - 1)
    for depth in range(1, max_depth):
        child_prefixes = depth_prefixes[depth]
        slots = (child_prefixes & slot_mask).astype(np.int64)
        parents = node_base(depth - 1, child_prefixes >> np.uint64(2 * delta))
        child_bases = depth_bases[depth] + np.arange(len(child_prefixes)) * fanout
        pool[parents + slots] = (child_bases.astype(np.uint64)) << np.uint64(2)
    for depth in range(1, max_depth + 1):
        sel = value_depths == depth
        ids = key_ids[sel]
        shift = np.uint64(_FACE_SHIFT - 2 * delta * depth)
        slots = ((ids >> shift) & slot_mask).astype(np.int64)
        parents = node_base(depth - 1, ids >> np.uint64(shift + np.uint64(2 * delta)))
        pool[parents + slots] = key_entries[sel]
    for face in range(6):
        face_sel = faces == face
        if not np.any(face_sel):
            continue
        face_prefix = np.uint64(face)
        prefix_depth = 0
        for depth in range(1, int(value_depths[face_sel].min())):
            shift = np.uint64(_FACE_SHIFT - 2 * delta * depth)
            candidates = np.unique(key_ids[face_sel] >> shift)
            if len(candidates) != 1:
                break
            face_prefix = candidates[0]
            prefix_depth = depth
        root = node_base(prefix_depth, np.asarray([face_prefix], dtype=np.uint64))
        face_trees[face] = (
            int(root[0]),
            _FACE_SHIFT - 2 * delta * prefix_depth,
            int(face_prefix),
            prefix_depth,
        )
    return pool, face_trees, face_values, len(key_ids)


def tagged_pool(pool: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The tagged (FORMAT_VERSION 3) form of a signed node pool: a value
    slot holds its tagged entry, a pointer slot ``child base << 2``."""
    values = pool < 0
    tagged = pool.astype(np.uint64) << np.uint64(2)
    tagged[values] = entries[-pool[values]]
    return tagged


#: The tagged descent compacted its lane set when fewer than one lane in
#: this many was still live.
_TAGGED_COMPACT_BELOW = 4


def tagged_descent_probe(act, query_ids: np.ndarray):
    """``AdaptiveCellTrie.probe_instrumented`` as it ran until 1.34.0: the
    tagged pool (:func:`tagged_pool`), a tag test per slot read, values
    copied out per level, and the descent continued on a compacted copy
    once fewer than a quarter of the lanes were live.  Returns
    ``(entries, depths, node_accesses, prefix_rejections)``."""
    pool = tagged_pool(act.pool, act.entries)
    tag_mask, tag_bits = np.uint64(3), np.uint64(2)
    slot_mask = act.fanout - 1

    def descend(ids, current, depth, out, depths) -> int:
        node_accesses = 0
        while depth < act._max_value_depth:
            live = int(np.count_nonzero(current))
            if live == 0:
                break
            if live * _TAGGED_COMPACT_BELOW < len(current):
                keep = np.flatnonzero(current)
                found = np.zeros(live, dtype=np.uint64)
                steps = np.zeros(live, dtype=np.int16)
                node_accesses += descend(ids[keep], current[keep], depth, found, steps)
                out[keep] = found
                depths[keep] += steps
                break
            node_accesses += live
            depths += current != 0
            depth += 1
            slots = ids >> (_FACE_SHIFT - 2 * act.delta * depth)
            slots &= slot_mask
            slots += current
            entries = pool[slots]
            is_value = (entries & tag_mask) != np.uint64(0)
            np.copyto(out, entries, where=is_value)
            entries >>= tag_bits
            current = entries.view(np.int64)
            current *= ~is_value
        return node_accesses

    ids = np.ascontiguousarray(query_ids, dtype=np.uint64)
    out = np.zeros(len(ids), dtype=np.uint64)
    depths = np.zeros(len(ids), dtype=np.int16)
    node_accesses = prefix_rejections = 0
    top = (ids >> np.uint64(_FACE_SHIFT)).astype(np.intp)
    for roots in act._root_tables:
        prefix = roots.prefix_value[top]
        accepted = (ids >> roots.prefix_shift) == prefix
        current = roots.root_base[top] * accepted
        prefix_rejections += int(
            np.count_nonzero(prefix != _NO_PREFIX) - np.count_nonzero(accepted)
        )
        node_accesses += descend(ids.view(np.int64), current, roots.prefix_depth, out, depths)
    for face, entry in act._face_values.items():
        out[top == face] = entry
    return out, depths, node_accesses, prefix_rejections


def per_level_probe_rows(act, query_ids: np.ndarray) -> np.ndarray:
    """``AdaptiveCellTrie.probe_rows`` as it ran until 1.40.0: every lane
    starts at its face tree's root node and reads one slot per level,
    ``e = pool[current + slot]``, keeping ``found = min(found, e)`` and
    moving to ``current = max(e, 0)`` — the root node and its child are
    two levels here, not one read of the two-level root table.  A root
    table that accepts every lane descends in place; otherwise the
    accepted lanes are gathered, descend and are scattered back."""
    ids = np.ascontiguousarray(query_ids, dtype=np.uint64)
    top = (ids >> np.uint64(_FACE_SHIFT)).astype(np.intp)
    found = act._face_found[top]
    signed_ids = ids.view(np.int64)
    slot_mask = act.fanout - 1
    for roots in act._root_tables:
        accepted = (ids >> roots.prefix_shift) == roots.prefix_value[top]
        every_lane = bool(accepted.all())
        lanes = slice(None) if every_lane else np.flatnonzero(accepted)
        lane_ids = signed_ids[lanes]
        current = roots.root_base[top[lanes]]
        lane_found = found[lanes]
        for depth in range(roots.prefix_depth + 1, act._max_value_depth + 1):
            slots = lane_ids >> (_FACE_SHIFT - 2 * act.delta * depth)
            slots &= slot_mask
            slots += current
            current = act.pool.take(slots)
            np.minimum(lane_found, current, out=lane_found)
            np.maximum(current, 0, out=current)
        if not every_lane:
            found[lanes] = lane_found
    return -found


def overlay_refs_all_lanes(overlay, query_ids: np.ndarray) -> list[tuple[PolygonRef, ...]]:
    """Every lane's reference set as an
    :class:`~repro.core.dynamic.OverlayCellStore` must answer it, merging
    every lane: the base and delta stores probed, each entry decoded
    against its own store's lookup table, the two sets merged and
    tombstoned polygons dropped."""
    query_ids = np.asarray(query_ids, dtype=np.uint64)
    stores = [overlay._base_store]
    if overlay._delta_store is not None:
        stores.append(overlay._delta_store)
    probed = [store.probe(query_ids).tolist() for store in stores]
    lanes = []
    for entries in zip(*probed):
        refs = [
            ref
            for store, entry in zip(stores, entries)
            if entry
            for ref in store.lookup_table.decode_entry(entry)
        ]
        lanes.append(
            tuple(ref for ref in merge_refs(refs) if ref.polygon_id not in overlay._tombstones)
        )
    return lanes


def expensive_entries(entries: np.ndarray, lookup_table: LookupTable) -> np.ndarray:
    """Which tagged entries send their points into the refinement phase.

    ``out[i]`` is true when entry ``i`` holds at least one candidate
    (non-interior) reference, read off the inlined interior bits and the
    ``num_candidate`` word of an offset entry's list, without expanding
    the pairs.  Sentinel entries (misses) are cheap.
    """
    entries = np.asarray(entries, dtype=np.uint64)
    tags = entries & np.uint64(3)
    first_candidate = (entries >> np.uint64(2)) & np.uint64(1) == 0
    second_candidate = (entries >> np.uint64(33)) & np.uint64(1) == 0
    expensive = (tags == np.uint64(TAG_ONE_REF)) & first_candidate
    expensive |= (tags == np.uint64(TAG_TWO_REFS)) & (first_candidate | second_candidate)
    offset_idx = np.nonzero(tags == np.uint64(TAG_OFFSET))[0]
    if offset_idx.size:
        offsets = (entries[offset_idx] >> np.uint64(2)).astype(np.int64)
        _, num_cand = offset_counts(lookup_table.array, offsets)
        expensive[offset_idx] = num_cand > 0
    return expensive


def decode_join(store, cell_ids, num_polygons, *, engine=None, lngs=None, lats=None):
    """A join as the kernels ran it until 1.37.0: every point's tagged
    entry decoded into ``(point, polygon, is_true)`` pairs with
    ``decode_entries``, then counted (approximate, ``engine=None``) or
    refined pair by pair (accurate).  Returns ``(counts, statistics,
    pair set)``; the statistics are the ``JoinResult`` fields by name."""
    entries = store.probe(cell_ids)
    point_idx, pids, is_true = decode_entries(entries, store.lookup_table)
    num_true = int(np.count_nonzero(is_true))
    if engine is None:
        keep_points, keep_pids = point_idx, pids
        num_pip = num_refined = 0
        num_candidates = len(pids) - num_true
    else:
        keep_points, keep_pids, num_pip, num_refined = engine.refine(
            point_idx, pids, is_true, lngs, lats
        )
        num_candidates = num_pip
    stats = {
        "num_points": len(cell_ids),
        "num_pairs": len(keep_points),
        "num_true_hit_pairs": num_true,
        "num_candidate_pairs": num_candidates,
        "num_pip_tests": num_pip,
        "solely_true_hits": len(cell_ids) - num_refined,
    }
    pairs = set(zip(keep_points.tolist(), keep_pids.tolist()))
    return np.bincount(keep_pids, minlength=num_polygons), stats, pairs
