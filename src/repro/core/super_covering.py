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

Two implementations are provided and tested for equivalence:

* :func:`build_super_covering` — a bulk sweep over all cells sorted by
  ``range_min`` that resolves all conflicts in one O(n log n) pass;
  used when building an index over a full polygon dataset.
* :meth:`SuperCovering.insert` — the paper's incremental one-cell-at-a-time
  insertion (Listing 1), which also supports the future-work path of adding
  polygons to an existing index.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.cells.cellid import MAX_LEVEL, CellId
from repro.core.refs import PolygonRef, merge_refs

#: Leaf ids advance in steps of two (bit 0 is always set).
_LEAF_STEP = 2


class SuperCovering:
    """A disjoint mapping from cells to polygon-reference sets."""

    def __init__(self) -> None:
        self._refs: dict[int, tuple[PolygonRef, ...]] = {}
        # Sorted list of ids for descendant range queries in insert().
        self._sorted_ids: list[int] = []

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._refs)

    def __contains__(self, cell: CellId) -> bool:
        return cell.id in self._refs

    def refs_for(self, cell: CellId) -> tuple[PolygonRef, ...]:
        return self._refs[cell.id]

    def items(self) -> Iterator[tuple[CellId, tuple[PolygonRef, ...]]]:
        """Iterate ``(cell, refs)`` in id order."""
        for raw_id in sorted(self._refs):
            yield CellId(raw_id), self._refs[raw_id]

    def raw_items(self) -> Mapping[int, tuple[PolygonRef, ...]]:
        """The underlying id -> refs mapping (read-only by convention)."""
        return self._refs

    @property
    def num_cells(self) -> int:
        return len(self._refs)

    def copy(self) -> "SuperCovering":
        """An independent shallow copy (reference tuples are immutable).

        Used by online retraining, which adapts a copy of the live
        covering in the background and only then swaps the result in.
        """
        clone = SuperCovering()
        clone._refs = dict(self._refs)
        clone._sorted_ids = list(self._sorted_ids)
        return clone

    @classmethod
    def from_raw(
        cls, raw: Mapping[int, Sequence[PolygonRef]]
    ) -> "SuperCovering":
        """Rebuild a covering from an ``id -> refs`` mapping.

        The caller asserts the cells are already disjoint — they came out
        of an existing covering (a serialized file, or one spatial
        partition of a live covering shipped to a shard worker) — so no
        conflict resolution runs; this is a plain re-index.
        """
        covering = cls()
        covering._refs = {
            int(raw_id): tuple(refs) for raw_id, refs in raw.items()
        }
        covering._sorted_ids = sorted(covering._refs)
        return covering

    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized export of every (cell, polygon-ref) entry.

        Returns ``(cell_ids, counts, entry_pids)``: the id-sorted cell
        ids (``uint64``), each cell's reference count (``int64``), and
        the polygon id of every entry concatenated in that cell order
        (``int64``, ``counts.sum()`` long).  This is the array form the
        sharded serving layer plans over — home-cell attribution, cut
        balancing, and owned/borrowed classification are all
        ``np.repeat``/``bincount`` kernels over these three arrays
        instead of Python loops over the refs dict.
        """
        num_cells = len(self._sorted_ids)
        cell_ids = np.fromiter(
            self._sorted_ids, dtype=np.uint64, count=num_cells
        )
        counts = np.fromiter(
            (len(self._refs[raw_id]) for raw_id in self._sorted_ids),
            dtype=np.int64,
            count=num_cells,
        )
        entry_pids = np.fromiter(
            (
                ref.polygon_id
                for raw_id in self._sorted_ids
                for ref in self._refs[raw_id]
            ),
            dtype=np.int64,
            count=int(counts.sum()) if num_cells else 0,
        )
        return cell_ids, counts, entry_pids

    def find_containing(self, leaf_id: int) -> tuple[CellId, tuple[PolygonRef, ...]] | None:
        """The unique cell containing a leaf id, or None (walks ancestors)."""
        cell = CellId(leaf_id)
        for level in range(MAX_LEVEL, -1, -1):
            ancestor = cell if level == MAX_LEVEL else cell.parent(level)
            refs = self._refs.get(ancestor.id)
            if refs is not None:
                return ancestor, refs
        return None

    def check_disjoint(self) -> None:
        """Raise AssertionError if any two cells conflict (test helper)."""
        ordered = sorted(CellId(i) for i in self._refs)
        for previous, current in zip(ordered, ordered[1:]):
            if previous.range_max().id >= current.range_min().id:
                raise AssertionError(f"conflicting cells: {previous} and {current}")

    # ------------------------------------------------------------------
    # Incremental build (Listing 1)
    # ------------------------------------------------------------------

    def insert(self, cell: CellId, refs: Iterable[PolygonRef]) -> None:
        """Insert one covering cell, resolving conflicts precision-preservingly."""
        new_refs = tuple(refs)
        raw_id = cell.id
        existing = self._refs.get(raw_id)
        if existing is not None:
            # Duplicate cell: merge the reference lists.
            self._refs[raw_id] = merge_refs(existing, new_refs)
            return
        ancestor = self._find_existing_ancestor(cell)
        if ancestor is not None:
            # Existing c1 contains the new c2: replace c1 by c2 + difference.
            ancestor_refs = self._remove(ancestor)
            from repro.cells.cellid import cell_difference

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
                if self._has_descendants_or_self(child):
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

    # ------------------------------------------------------------------
    # Mutation used by precision refinement / training
    # ------------------------------------------------------------------

    def replace_cell(
        self,
        cell: CellId,
        replacements: Iterable[tuple[CellId, tuple[PolygonRef, ...]]],
    ) -> None:
        """Replace ``cell`` with descendant cells (no conflict checking).

        Used by precision refinement and index training, whose replacement
        cells are descendants of ``cell`` by construction and therefore
        cannot conflict with anything else.
        """
        self._remove(cell)
        for descendant, refs in replacements:
            if refs:
                self._add(descendant, refs)

    def replace_cells(
        self,
        removed: Iterable[int],
        added: Mapping[int, tuple[PolygonRef, ...]],
    ) -> None:
        """Bulk :meth:`replace_cell`: drop ``removed`` ids, add descendants.

        The precision refinement replaces every boundary cell in one call,
        so the sorted id list is rebuilt once instead of per cell.
        """
        for raw_id in removed:
            del self._refs[raw_id]
        self._refs.update(added)
        self._sorted_ids = sorted(self._refs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _add(self, cell: CellId, refs: tuple[PolygonRef, ...]) -> None:
        self._refs[cell.id] = refs
        bisect.insort(self._sorted_ids, cell.id)

    def _remove(self, cell: CellId) -> tuple[PolygonRef, ...]:
        refs = self._refs.pop(cell.id)
        index = bisect.bisect_left(self._sorted_ids, cell.id)
        del self._sorted_ids[index]
        return refs

    def _find_existing_ancestor(self, cell: CellId) -> CellId | None:
        for level in range(cell.level - 1, -1, -1):
            ancestor = cell.parent(level)
            if ancestor.id in self._refs:
                return ancestor
        return None

    def _has_descendants(self, cell: CellId) -> bool:
        lo = cell.range_min().id
        hi = cell.range_max().id
        index = bisect.bisect_left(self._sorted_ids, lo)
        return index < len(self._sorted_ids) and self._sorted_ids[index] <= hi

    def _has_descendants_or_self(self, cell: CellId) -> bool:
        return cell.id in self._refs or self._has_descendants(cell)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def level_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for raw_id in self._refs:
            level = CellId(raw_id).level
            histogram[level] = histogram.get(level, 0) + 1
        return dict(sorted(histogram.items()))

    def raw_key_bytes(self) -> int:
        """Paper's raw-size accounting: 8 bytes per cell id."""
        return 8 * len(self._refs)


def _cells_covering_leaf_range(lo: int, hi: int) -> Iterator[CellId]:
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
        lo = cell.range_max().id + _LEAF_STEP


def build_super_covering(
    per_polygon_cells: Iterable[tuple[int, Sequence[CellId], Sequence[CellId]]],
) -> SuperCovering:
    """Bulk-build a super covering from per-polygon (interior) coverings.

    ``per_polygon_cells`` yields ``(polygon_id, covering, interior_covering)``
    triples.  Produces the same result as inserting every cell through
    :meth:`SuperCovering.insert` (tested), in a single sorted sweep:

    1. aggregate references of identical cells,
    2. sort cells by ``(range_min, level)`` so ancestors precede their
       descendants,
    3. sweep with a stack of active ancestors, emitting the uncovered gaps
       of each ancestor as maximal cells carrying the accumulated ancestor
       references — which is precisely the difference-cell decomposition of
       the paper's conflict resolution, generalized to arbitrary nesting.
    """
    aggregated: dict[int, tuple[PolygonRef, ...]] = {}
    for polygon_id, covering, interior_covering in per_polygon_cells:
        for cell in covering:
            _aggregate(aggregated, cell.id, PolygonRef(polygon_id, False))
        for cell in interior_covering:
            _aggregate(aggregated, cell.id, PolygonRef(polygon_id, True))

    cells = sorted(
        (CellId(raw_id) for raw_id in aggregated),
        key=lambda c: (c.range_min().id, c.level),
    )

    result = SuperCovering()
    output = result._refs
    # Stack frames: [cell, accumulated refs, cursor (next uncovered leaf id)].
    stack: list[list] = []

    def flush_top() -> None:
        cell, refs, cursor = stack.pop()
        for piece in _cells_covering_leaf_range(cursor, cell.range_max().id):
            output[piece.id] = refs
        if stack:
            stack[-1][2] = cell.range_max().id + _LEAF_STEP

    for cell in cells:
        lo = cell.range_min().id
        while stack and stack[-1][0].range_max().id < lo:
            flush_top()
        own = aggregated[cell.id]
        if stack:
            parent_cell, parent_refs, parent_cursor = stack[-1]
            # Emit the parent's gap before this descendant begins.
            if parent_cursor < lo:
                for piece in _cells_covering_leaf_range(parent_cursor, lo - _LEAF_STEP):
                    output[piece.id] = parent_refs
            stack[-1][2] = lo
            combined = merge_refs(parent_refs, own)
        else:
            combined = merge_refs(own)
        stack.append([cell, combined, lo])
    while stack:
        flush_top()

    result._sorted_ids = sorted(output)
    return result


def _aggregate(
    aggregated: dict[int, tuple[PolygonRef, ...]], raw_id: int, ref: PolygonRef
) -> None:
    existing = aggregated.get(raw_id)
    if existing is None:
        aggregated[raw_id] = (ref,)
    else:
        aggregated[raw_id] = merge_refs(existing, (ref,))
