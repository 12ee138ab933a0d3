"""Parity oracles: the scalar one-cell-at-a-time build kernels, and the
stage-by-stage lat/lng -> cell id pipeline.

Until 1.12.0 the first were the production coverer, relation test and
precision descent.  The build now classifies whole rounds of cells through
``repro.geo.relation._RectClassifier``; the scalar versions live on here —
next to ``train_super_covering_sequential``'s role for training — so the
property tests can assert the batched kernels agree with them cell for
cell (``tests/test_build_parity.py``, ``tests/test_relation.py``).

Until 1.13.0 the second was ``repro.cells.vectorized``: one function and a
set of temporaries per stage, a boolean-masked scatter per cube face, a
shift-and-mask Hilbert walk.  The production kernel is now one in-place
pass; ``tests/test_vectorized.py`` asserts it returns the same ids.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.cells.cell import bound_rect_from_face_ij, cell_bound_rect
from repro.cells.cellid import MAX_LEVEL as MAX_CELL_LEVEL
from repro.cells.cellid import NUM_FACES, CellId
from repro.cells.hilbert import LOOKUP_BITS, LOOKUP_POS, SWAP_MASK
from repro.cells.projections import MAX_SIZE
from repro.cells.coverer import CovererOptions
from repro.cells.metrics import level_for_max_diag_meters
from repro.core.precision import _uncovered_children
from repro.core.refs import PolygonRef, merge_refs
from repro.core.super_covering import SuperCovering
from repro.geo.edgeset import EdgeSet
from repro.geo.pip import contains_point
from repro.geo.polygon import Polygon
from repro.geo.rect import Rect
from repro.geo.relation import Relation

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
            if (
                cell.level > 0
                and cell.child_position(cell.level) == 0
                and index + 3 < len(cells_now)
            ):
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
        (CellId(raw_id), refs)
        for raw_id, refs in super_covering.raw_items().items()
        if any(not ref.interior for ref in refs)
    ]
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
            for gap in _uncovered_children(cell, covered):
                replacements.append((gap, true_refs))
        super_covering.replace_cell(cell, replacements)
    return target_level


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
