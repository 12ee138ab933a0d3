"""Precision-bound refinement of a super covering (Section 3.2).

The approximate join treats every boundary-cell hit as a join pair, so the
distance of a false positive from the polygon is bounded by the diagonal of
the largest boundary cell.  To honor a user-defined precision bound, every
boundary cell coarser than the level implied by the bound is replaced by
descendants at that level; descendants are re-classified against the
referenced polygons so that

* descendants fully inside a polygon become true-hit cells,
* descendants still touching a boundary stay candidate cells at exactly the
  required level,
* descendants outside every referenced polygon are dropped.

A naive implementation would enumerate all ``4^(target - level)``
descendants; we instead descend in rounds, pruning whole subtrees the
moment they lose contact with every polygon boundary.  A round takes every
live cell of every refined subtree at once (``uint64`` id arrays, with the
``(cell, polygon)`` pairs still undecided), computes the bound rects in one
call and classifies the pairs with one :mod:`repro.geo.relation` call per
polygon — the same kernel the coverer and training use.  A CONTAINED pair
becomes an inherited true hit for the whole subtree, a DISJOINT pair is
dropped, an INTERSECTS pair stays a candidate and makes its cell split
until the target level.  Cells that separate from all boundaries above the
target level are kept coarse: they are uniform, so keeping them un-split
preserves both the precision guarantee (which constrains only boundary
cells) and memory.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

import numpy as np

from repro.cells.cell import bound_rects_for_cell_ids
from repro.cells.cellid import CellId
from repro.cells.metrics import level_for_max_diag_meters
from repro.cells.vectorized import (
    child_cell_ids,
    levels_from_cell_ids,
    range_bounds_from_cell_ids,
)
from repro.core.refs import PolygonRef, merge_refs
from repro.core.super_covering import SuperCovering
from repro.geo.polygon import Polygon
from repro.geo.relation import Relation, relations_for_pairs

_CHILD_SLOTS = np.arange(4, dtype=np.int64)


def refine_to_precision(
    super_covering: SuperCovering,
    polygons: Sequence[Polygon],
    precision_meters: float,
) -> int:
    """Refine all boundary cells to honor ``precision_meters`` (in place).

    Returns the minimum boundary-cell level implied by the bound.  After
    this call, every candidate (boundary) cell in the super covering has a
    maximum diagonal of at most ``precision_meters``.
    """
    target_level = level_for_max_diag_meters(precision_meters)
    # Every cell with a candidate reference is (re-)classified — including
    # cells already at or below the target level: conflict resolution can
    # hand a fine cell a candidate reference for a polygon it does not even
    # touch (inherited from a coarse ancestor), and the precision guarantee
    # requires boundary cells to actually border their polygons.
    root_list: list[int] = []
    true_refs: list[tuple[PolygonRef, ...]] = []
    candidate_counts: list[int] = []
    candidate_pids: list[int] = []
    for raw_id, refs in super_covering.raw_items().items():
        pids = [ref.polygon_id for ref in refs if not ref.interior]
        if pids:
            root_list.append(raw_id)
            true_refs.append(tuple(ref for ref in refs if ref.interior))
            candidate_counts.append(len(pids))
            candidate_pids.extend(pids)
    if not root_list:
        return target_level
    root_ids = np.asarray(root_list, dtype=np.uint64)
    # The frontier: live cells (id, level, owning root) and their pairs
    # (frontier slot, polygon id, relation code).  A pair's code is
    # INTERSECTS while it is a candidate, CONTAINED once inherited.
    cell_ids = root_ids
    cell_levels = levels_from_cell_ids(root_ids)
    cell_roots = np.arange(len(root_list), dtype=np.int64)
    pair_cells = np.repeat(cell_roots, candidate_counts)
    pair_pids = np.asarray(candidate_pids, dtype=np.int64)
    pair_codes = np.full(len(pair_cells), Relation.INTERSECTS, dtype=np.int8)
    added: dict[int, tuple[PolygonRef, ...]] = {}
    merged_cache: dict[tuple[int, ...], tuple[PolygonRef, ...]] = {}
    while len(cell_ids):
        rects = bound_rects_for_cell_ids(cell_ids)
        undecided = np.flatnonzero(pair_codes == Relation.INTERSECTS)
        pair_codes[undecided] = relations_for_pairs(
            polygons, rects, pair_cells[undecided], pair_pids[undecided]
        )
        kept = np.flatnonzero(pair_codes != Relation.DISJOINT)
        pair_cells, pair_pids, pair_codes = pair_cells[kept], pair_pids[kept], pair_codes[kept]
        boundary = np.bincount(
            pair_cells[pair_codes == Relation.INTERSECTS], minlength=len(cell_ids)
        ).astype(bool)
        split = boundary & (cell_levels < target_level)
        # Everything else with a reference left is final: uniform cells
        # stay coarse, boundary cells sit at (or below) the target level.
        final = np.flatnonzero(~split[pair_cells])
        final = final[np.argsort(pair_cells[final], kind="stable")]
        slots = pair_cells[final]
        firsts = np.flatnonzero(np.diff(slots, prepend=-1))
        bounds = [*firsts.tolist(), len(slots)]
        packed = (
            pair_pids[final] << 1 | (pair_codes[final] == Relation.CONTAINED)
        ).tolist()
        # A final cell's reference set is its root's true hits merged with
        # its own pairs (``PolygonRef.packed()`` form); it depends only on
        # (root, pairs), which repeats across thousands of cells.
        for raw, root, start, stop in zip(
            cell_ids[slots[firsts]].tolist(),
            cell_roots[slots[firsts]].tolist(),
            bounds,
            bounds[1:],
        ):
            key = (root, *packed[start:stop])
            refs = merged_cache.get(key)
            if refs is None:
                refs = merged_cache[key] = merge_refs(
                    true_refs[root], map(PolygonRef.from_packed, key[1:])
                )
            added[raw] = refs
        # Split cells hand their pairs, unchanged, to all four children.
        parents = np.flatnonzero(split)
        child_base = np.zeros(len(cell_ids), dtype=np.int64)
        child_base[parents] = 4 * np.arange(len(parents), dtype=np.int64)
        moving = np.flatnonzero(split[pair_cells])
        pair_cells = (child_base[pair_cells[moving]][:, None] + _CHILD_SLOTS).ravel()
        pair_pids = np.repeat(pair_pids[moving], 4)
        pair_codes = np.repeat(pair_codes[moving], 4)
        cell_ids = child_cell_ids(cell_ids[parents]).ravel()
        cell_levels = np.repeat(cell_levels[parents] + 1, 4)
        cell_roots = np.repeat(cell_roots[parents], 4)
    # True hits inherited from the original cell must keep covering the
    # *whole* cell even where every candidate polygon is absent.
    covered = np.sort(np.fromiter(added, dtype=np.uint64, count=len(added)))
    lows, highs = range_bounds_from_cell_ids(root_ids)
    starts = np.searchsorted(covered, lows, side="left").tolist()
    stops = np.searchsorted(covered, highs, side="right").tolist()
    for raw_id, refs, start, stop in zip(root_list, true_refs, starts, stops):
        if refs:
            for gap in _uncovered_children(
                CellId(raw_id), set(covered[start:stop].tolist())
            ):
                added[gap.id] = refs
    super_covering.replace_cells(root_list, added)
    return target_level


def _uncovered_children(cell: CellId, covered_ids: set[int]) -> list[CellId]:
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
