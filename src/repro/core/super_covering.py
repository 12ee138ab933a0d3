"""The super covering: one disjoint cell set approximating many polygons.

This implements Listing 1 of the paper.  Per-polygon coverings and interior
coverings are merged into a single set of multi-resolution cells such that
every geographic point is covered by **at most one** cell, even where
polygons overlap.  Disjointness is what lets the Adaptive Cell Trie store a
value *or* a child pointer per slot (never both) and lets a probe stop at
the first match.

Conflicts — one input cell containing another — are resolved with the
paper's *precision preserving* strategy (Figure 4): instead of keeping the
coarse ancestor ``c1`` (losing precision) or exploding it into cells as
small as the descendant ``c2``, we store ``c2`` plus ``d = c1 - c2`` (the
sibling subtrees on the path from ``c2`` up to ``c1``), copying ``c1``'s
references onto both.  Nothing about any cell's reference set changes for
any geographic point.

A :class:`SuperCovering` *is* the three sorted arrays a flat snapshot
ships (:data:`repro.core.flat.FLAT_COVERAGE_BUFFERS`):

* ``cell_ids`` — ``uint64``, strictly ascending,
* ``ref_offsets`` — ``int64``, one more than cells; row ``i``'s references
  are ``packed_refs[ref_offsets[i]:ref_offsets[i + 1]]``,
* ``packed_refs`` — ``uint32`` ``(polygon_id << 1) | interior``, ascending
  within a row, a polygon at most once per row (interior dominating).

The arrays are never mutated in place — every mutation installs new ones —
so copies and attached snapshot views share them freely.

One merge serves every writer: :func:`build_super_covering` sweeps all
input cells of a build, :meth:`SuperCovering.insert` sweeps the existing
rows together with the new cells.  The paper's one-cell-at-a-time
insertion is the parity oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.cells.cellid import NUM_FACES, CellId
from repro.cells.vectorized import (
    levels_from_cell_ids,
    range_bounds_from_cell_ids,
    tile_leaf_ranges,
)
from repro.core.refs import PolygonRef, validate_polygon_id

#: Bits a packed reference occupies (30-bit polygon id + interior flag).
_REF_BITS = np.uint64(31)
_REF_MASK = np.uint64((1 << 31) - 1)
#: A valid cell id's lowest set bit sits at an even position.
_EVEN_BITS = np.uint64(0x5555555555555555)
_LEAF_STEP = np.uint64(2)


def take_rows(
    offsets: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR rows: ``(new offsets, new values)`` of ``rows`` in order."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    new_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    index = np.repeat(starts - new_offsets[:-1], counts)
    index += np.arange(new_offsets[-1], dtype=np.int64)
    return new_offsets, values[index]


def rows_from_entries(
    owners: np.ndarray, packed: np.ndarray, num_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical reference rows from loose ``(row, packed ref)`` entries.

    One sort of the composite ``(row, packed ref)`` key: duplicates
    collapse, and a candidate reference directly followed by the same
    polygon's true hit is dropped (a cell fully inside a polygon needs no
    refinement).  Returns ``(ref_offsets, packed_refs)`` over
    ``num_rows`` rows.
    """
    keys = np.unique(
        (owners.astype(np.uint64) << _REF_BITS) | packed.astype(np.uint64)
    )
    pairs = keys >> np.uint64(1)  # (row, polygon id)
    keep = np.ones(len(keys), dtype=bool)
    keep[:-1] = pairs[:-1] != pairs[1:]
    keys = keys[keep]
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(
        np.bincount((keys >> _REF_BITS).astype(np.int64), minlength=num_rows),
        out=offsets[1:],
    )
    return offsets, (keys & _REF_MASK).astype(np.uint32)


def candidate_counts(ref_offsets: np.ndarray, packed_refs: np.ndarray) -> np.ndarray:
    """Candidate (non-interior) references per row, ``int64``."""
    num_rows = len(ref_offsets) - 1
    rows = np.repeat(np.arange(num_rows, dtype=np.int64), np.diff(ref_offsets))
    return np.bincount(rows[(packed_refs & np.uint32(1)) == 0], minlength=num_rows)


def merge_cells(
    cells: np.ndarray, packed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merge sweep: loose ``(cell id, packed ref)`` entries to the
    disjoint ``(cell_ids, ref_offsets, packed_refs)`` of a super covering.

    1. References of identical cells aggregate (one sort).
    2. Cells are ordered by ``(range_min ascending, range_max descending)``,
       a preorder of the nesting forest: a cell's descendants are the
       contiguous run that follows it.
    3. Every cell's row is copied over its run, so each cell ends up with
       the references of all its ancestors (one more sort).
    4. Childless cells are emitted whole; the parts of a parent not
       covered by its children — before its first child, and after each
       child up to the next sibling or the parent's end — are tiled with
       maximal cells carrying the parent's accumulated row.  That is the
       difference-cell decomposition of the paper's conflict resolution,
       generalized to arbitrary nesting.
    """
    ids, inverse = np.unique(cells, return_inverse=True)
    offsets, packed = rows_from_entries(inverse.ravel(), packed, len(ids))
    lo, hi = range_bounds_from_cell_ids(ids)
    if np.all(hi[:-1] < lo[1:]):
        return ids, offsets, packed  # nothing nests
    order = np.lexsort((~hi, lo))
    ids, lo, hi = ids[order], lo[order], hi[order]
    offsets, packed = take_rows(offsets, packed, order)
    count = len(ids)
    position = np.arange(count, dtype=np.int64)
    end = np.searchsorted(lo, hi, side="right")  # one past the descendants
    # Accumulate: every (ancestor-or-self, cell) pair hands the cell the
    # ancestor's row.
    size = end - position
    source = np.repeat(position, size)
    target = np.arange(len(source), dtype=np.int64)
    target -= np.repeat(np.cumsum(size) - size, size) - source
    row_offsets, row_values = take_rows(offsets, packed, source)
    offsets, packed = rows_from_entries(
        np.repeat(target, np.diff(row_offsets)), row_values, count
    )
    # The nearest enclosing cell, one nesting depth at a time.
    depth = position - np.cumsum(np.bincount(end, minlength=count + 1))[:count]
    parent = np.full(count, -1, dtype=np.int64)
    for level in range(1, int(depth.max()) + 1):
        above = np.flatnonzero(depth == level - 1)
        here = np.flatnonzero(depth == level)
        parent[here] = above[np.searchsorted(above, here) - 1]
    childless = end == position + 1
    parents = np.flatnonzero(~childless)
    nested = np.flatnonzero(depth > 0)
    enclosing = parent[nested]
    following = np.minimum(end[nested], count - 1)
    sibling_follows = (end[nested] < count) & (lo[following] <= hi[enclosing])
    gap_cells, gap_index = tile_leaf_ranges(
        np.concatenate([lo[parents], hi[nested] + _LEAF_STEP]),
        np.concatenate(
            [
                lo[parents + 1],
                np.where(sibling_follows, lo[following], hi[enclosing] + _LEAF_STEP),
            ]
        ),
    )
    out_ids = np.concatenate([ids[childless], gap_cells])
    out_rows = np.concatenate(
        [np.flatnonzero(childless), np.concatenate([parents, enclosing])[gap_index]]
    )
    order = np.argsort(out_ids)
    return (out_ids[order], *take_rows(offsets, packed, out_rows[order]))


def _polygon_entries(
    polygon_id: int, covering: Sequence[CellId], interior_covering: Sequence[CellId]
) -> tuple[np.ndarray, np.ndarray]:
    """One polygon's approximations as ``(cell id, packed ref)`` entries."""
    cells = np.fromiter(
        (cell.id for group in (covering, interior_covering) for cell in group),
        dtype=np.uint64,
        count=len(covering) + len(interior_covering),
    )
    packed = np.full(len(cells), validate_polygon_id(polygon_id) << 1, dtype=np.uint32)
    packed[len(covering):] |= 1
    return cells, packed


class SuperCovering:
    """A disjoint mapping from cells to polygon-reference sets."""

    def __init__(self) -> None:
        self._install(
            np.zeros(0, dtype=np.uint64),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.uint32),
        )

    def _install(
        self, cell_ids: np.ndarray, ref_offsets: np.ndarray, packed_refs: np.ndarray
    ) -> None:
        self.cell_ids = cell_ids
        self.ref_offsets = ref_offsets
        self.packed_refs = packed_refs
        self._max_level: int | None = None

    @classmethod
    def _of(
        cls, cell_ids: np.ndarray, ref_offsets: np.ndarray, packed_refs: np.ndarray
    ) -> "SuperCovering":
        covering = cls.__new__(cls)
        covering._install(cell_ids, ref_offsets, packed_refs)
        return covering

    @classmethod
    def attach(
        cls, cell_ids: np.ndarray, ref_offsets: np.ndarray, packed_refs: np.ndarray
    ) -> "SuperCovering":
        """Wrap the three buffers of a saved or published covering.

        The arrays come from outside the program (a file, a shared-memory
        segment), so their shape is checked — ``ValueError`` naming the
        offending buffer — before anything indexes through them.  Ids
        already ascending (every file since 1.14.0) are used as they are,
        views included; older files stored them in build order and are
        sorted once here, rows regathered.
        """
        cell_ids = np.asarray(cell_ids, dtype=np.uint64)
        ref_offsets = np.asarray(ref_offsets, dtype=np.int64)
        packed_refs = np.asarray(packed_refs, dtype=np.uint32)
        if len(ref_offsets) != len(cell_ids) + 1:
            raise ValueError(
                f"ref_offsets: {len(ref_offsets)} offsets for "
                f"{len(cell_ids)} cell ids (expected one more)"
            )
        if ref_offsets[0] != 0 or np.any(ref_offsets[1:] < ref_offsets[:-1]):
            raise ValueError("ref_offsets: must start at 0 and never decrease")
        if ref_offsets[-1] != len(packed_refs):
            raise ValueError(
                f"packed_refs: {len(packed_refs)} references, but ref_offsets "
                f"ends at {int(ref_offsets[-1])}"
            )
        lsb = cell_ids & (np.uint64(0) - cell_ids)
        if np.any((lsb & _EVEN_BITS) == 0) or np.any(
            cell_ids >> np.uint64(61) >= NUM_FACES
        ):
            raise ValueError("cell_ids: not all entries are valid cell ids")
        if np.any(cell_ids[1:] <= cell_ids[:-1]):
            order = np.argsort(cell_ids)
            cell_ids = cell_ids[order]
            if np.any(cell_ids[1:] == cell_ids[:-1]):
                raise ValueError("cell_ids: duplicate cell ids")
            ref_offsets, packed_refs = take_rows(ref_offsets, packed_refs, order)
        return cls._of(cell_ids, ref_offsets, packed_refs)

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cell_ids)

    @property
    def num_cells(self) -> int:
        return len(self.cell_ids)

    def _row(self, raw_id: int) -> int:
        """Row of a cell id, ``-1`` when absent."""
        row = int(np.searchsorted(self.cell_ids, np.uint64(raw_id)))
        if row < len(self.cell_ids) and int(self.cell_ids[row]) == raw_id:
            return row
        return -1

    def _refs_at(self, row: int) -> tuple[PolygonRef, ...]:
        row_refs = self.packed_refs[self.ref_offsets[row] : self.ref_offsets[row + 1]]
        return tuple(map(PolygonRef.from_packed, row_refs.tolist()))

    def __contains__(self, cell: CellId) -> bool:
        return self._row(cell.id) >= 0

    def refs_for(self, cell: CellId) -> tuple[PolygonRef, ...]:
        row = self._row(cell.id)
        if row < 0:
            raise KeyError(cell)
        return self._refs_at(row)

    def items(self) -> Iterator[tuple[CellId, tuple[PolygonRef, ...]]]:
        """Iterate ``(cell, refs)`` in id order."""
        bounds = self.ref_offsets.tolist()
        refs = list(map(PolygonRef.from_packed, self.packed_refs.tolist()))
        for raw_id, start, stop in zip(self.cell_ids.tolist(), bounds, bounds[1:]):
            yield CellId(raw_id), tuple(refs[start:stop])

    def find_containing(
        self, leaf_id: int
    ) -> tuple[CellId, tuple[PolygonRef, ...]] | None:
        """The unique cell containing a leaf id, or None.

        Disjoint cells sorted by id are sorted by leaf range too, so the
        containing cell is one of the two ids around ``leaf_id``.
        """
        row = int(np.searchsorted(self.cell_ids, np.uint64(leaf_id)))
        for candidate in (row, row - 1):
            if 0 <= candidate < len(self.cell_ids):
                cell = CellId(int(self.cell_ids[candidate]))
                if cell.range_min().id <= leaf_id <= cell.range_max().id:
                    return cell, self._refs_at(candidate)
        return None

    def check_disjoint(self) -> None:
        """Raise AssertionError if any two cells conflict (test helper)."""
        lo, hi = range_bounds_from_cell_ids(self.cell_ids)
        clash = np.flatnonzero(hi[:-1] >= lo[1:])
        if len(clash):
            previous, current = self.cell_ids[clash[0] : clash[0] + 2].tolist()
            raise AssertionError(
                f"conflicting cells: {CellId(previous)} and {CellId(current)}"
            )

    def candidate_counts(self) -> np.ndarray:
        """Candidate (non-interior) references per cell, ``int64``; a cell
        is *expensive* — its hits need refinement — where this is > 0."""
        return candidate_counts(self.ref_offsets, self.packed_refs)

    def copy(self) -> "SuperCovering":
        """An independent covering over the same (immutable) arrays.

        Used by online retraining, which adapts a copy of the live
        covering in the background and only then swaps the result in.
        """
        return self._of(self.cell_ids, self.ref_offsets, self.packed_refs)

    # ------------------------------------------------------------------
    # Mutation: the merge sweep over existing rows + new cells, and the
    # bulk replacement precision refinement and training use
    # ------------------------------------------------------------------

    def insert(self, cell: CellId, refs: Iterable[PolygonRef]) -> None:
        """Insert one covering cell, resolving conflicts precision-preservingly."""
        packed = np.asarray([ref.packed() for ref in refs], dtype=np.uint32)
        self._merge_in(np.full(len(packed), cell.id, dtype=np.uint64), packed)

    def insert_covering(
        self,
        polygon_id: int,
        covering: Sequence[CellId],
        interior_covering: Sequence[CellId],
    ) -> None:
        """Insert one polygon's approximations (Listing 1)."""
        self._merge_in(*_polygon_entries(polygon_id, covering, interior_covering))

    def merge(self, other: "SuperCovering") -> None:
        """Insert every cell of another covering, rows and all."""
        self._merge_in(*other._entries())

    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as loose ``(cell id, packed ref)`` entries."""
        return np.repeat(self.cell_ids, np.diff(self.ref_offsets)), self.packed_refs

    def _merge_in(self, cells: np.ndarray, packed: np.ndarray) -> None:
        own_cells, own_packed = self._entries()
        self._install(
            *merge_cells(
                np.concatenate([own_cells, cells]),
                np.concatenate([own_packed, packed]),
            )
        )

    def replace_cells(
        self,
        removed_ids: np.ndarray,
        added_ids: np.ndarray,
        added_offsets: np.ndarray,
        added_refs: np.ndarray,
    ) -> None:
        """Replace cells by descendants: drop ``removed_ids``, add the rows
        ``(added_ids, added_offsets, added_refs)``.

        Precision refinement and training replace cells by cells inside
        them, which cannot conflict with anything else, so no sweep runs;
        an added cell outside every removed one is rejected.
        """
        removed = np.unique(np.asarray(removed_ids, dtype=np.uint64))
        added_ids = np.asarray(added_ids, dtype=np.uint64)
        keep = ~np.isin(self.cell_ids, removed, assume_unique=True)
        if len(self.cell_ids) - np.count_nonzero(keep) != len(removed):
            raise KeyError("replace_cells: a removed id is not a cell of the covering")
        if len(added_ids):
            root_lo, root_hi = range_bounds_from_cell_ids(removed)
            lo, hi = range_bounds_from_cell_ids(added_ids)
            root = np.searchsorted(root_lo, lo, side="right") - 1
            if np.any(root < 0) or np.any(hi > root_hi[root]):
                raise ValueError(
                    "replace_cells: an added cell lies outside every removed cell"
                )
        ids = np.concatenate([self.cell_ids, added_ids])
        rows = np.flatnonzero(
            np.concatenate([keep, np.ones(len(added_ids), dtype=bool)])
        )
        rows = rows[np.argsort(ids[rows])]
        offsets = np.concatenate(
            [self.ref_offsets, np.asarray(added_offsets[1:]) + self.ref_offsets[-1]]
        )
        values = np.concatenate(
            [self.packed_refs, np.asarray(added_refs, dtype=np.uint32)]
        )
        self._install(ids[rows], *take_rows(offsets, values, rows))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def level_histogram(self) -> dict[int, int]:
        levels, counts = np.unique(
            levels_from_cell_ids(self.cell_ids), return_counts=True
        )
        return dict(zip(levels.tolist(), counts.tolist()))

    def max_level(self) -> int:
        """Deepest cell level (0 when empty), computed once per array set."""
        if self._max_level is None:
            levels = levels_from_cell_ids(self.cell_ids)
            self._max_level = int(levels.max()) if len(levels) else 0
        return self._max_level


def build_super_covering(
    per_polygon_cells: Iterable[tuple[int, Sequence[CellId], Sequence[CellId]]],
) -> SuperCovering:
    """Bulk-build a super covering from per-polygon (interior) coverings.

    ``per_polygon_cells`` yields ``(polygon_id, covering, interior_covering)``
    triples; all their cells go through one :func:`merge_cells` sweep.
    """
    entries = [_polygon_entries(*triple) for triple in per_polygon_cells]
    if not entries:
        return SuperCovering()
    return SuperCovering._of(
        *merge_cells(
            np.concatenate([cells for cells, _ in entries]),
            np.concatenate([packed for _, packed in entries]),
        )
    )
