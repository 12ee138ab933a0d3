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
call and classifies the pairs with one :mod:`repro.geo.relation` pass —
the same kernel the coverer and training use.  A CONTAINED pair
becomes an inherited true hit for the whole subtree, a DISJOINT pair is
dropped, an INTERSECTS pair stays a candidate and makes its cell split
until the target level.  Cells that separate from all boundaries above the
target level are kept coarse: they are uniform, so keeping them un-split
preserves both the precision guarantee (which constrains only boundary
cells) and memory.

The covering goes in and comes out as arrays: the roots are the rows with a
candidate reference, the rounds collect ``(final cell, packed ref)`` pairs,
and the true hits a root already held reach its final cells — and the
tiling of whatever they leave uncovered — through the build's one merge
sweep (:func:`repro.core.super_covering.merge_cells`: final cells nest in
their roots).  One :meth:`SuperCovering.replace_cells` installs the lot.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cells.cell import bound_rects_for_cell_ids
from repro.cells.metrics import level_for_max_diag_meters
from repro.cells.vectorized import child_cell_ids, levels_from_cell_ids
from repro.core.super_covering import SuperCovering, merge_cells
from repro.geo.polygon import Polygon
from repro.geo.relation import Relation, RelationTable, relations_for_pairs

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
    root_rows = np.flatnonzero(super_covering.candidate_counts())
    if not len(root_rows):
        return target_level
    root_ids = super_covering.cell_ids[root_rows]
    # Root slot of every reference (-1: not a root's), split into the
    # candidates to classify and the true hits the roots already hold.
    slot_of_row = np.full(super_covering.num_cells, -1, dtype=np.int64)
    slot_of_row[root_rows] = np.arange(len(root_rows), dtype=np.int64)
    ref_slots = np.repeat(slot_of_row, np.diff(super_covering.ref_offsets))
    packed_refs = super_covering.packed_refs
    interior = (packed_refs & np.uint32(1)).astype(bool)
    candidates = np.flatnonzero(~interior & (ref_slots >= 0))
    inherited = np.flatnonzero(interior & (ref_slots >= 0))
    # The frontier: live cells (id, level) and their pairs (frontier slot,
    # polygon id, relation code).  A pair's code is INTERSECTS while it is
    # a candidate, CONTAINED once inherited.
    cell_ids = root_ids
    cell_levels = levels_from_cell_ids(root_ids)
    pair_cells = ref_slots[candidates]
    pair_pids = (packed_refs[candidates] >> np.uint32(1)).astype(np.int64)
    pair_codes = np.full(len(pair_cells), Relation.INTERSECTS, dtype=np.int8)
    table = RelationTable(polygons, pair_pids)
    final_cells: list[np.ndarray] = []
    final_refs: list[np.ndarray] = []
    while len(cell_ids):
        rects = bound_rects_for_cell_ids(cell_ids)
        undecided = np.flatnonzero(pair_codes == Relation.INTERSECTS)
        pair_codes[undecided] = relations_for_pairs(
            table, rects, pair_cells[undecided], pair_pids[undecided]
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
        final_cells.append(cell_ids[pair_cells[final]])
        final_refs.append(
            (pair_pids[final] << 1 | (pair_codes[final] == Relation.CONTAINED)).astype(
                np.uint32
            )
        )
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
    # The final cells nest in their roots, so one merge sweep hands each
    # its root's true hits and tiles the rest of the root with them: true
    # hits must keep covering the *whole* root even where every candidate
    # polygon is absent.
    super_covering.replace_cells(
        root_ids,
        *merge_cells(
            np.concatenate([*final_cells, root_ids[ref_slots[inherited]]]),
            np.concatenate([*final_refs, packed_refs[inherited]]),
        ),
    )
    return target_level
