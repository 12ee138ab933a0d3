"""Tests for the super covering and its conflict resolution (Listing 1).

The central invariants:

* cells are pairwise disjoint (no cell contains another),
* conflict resolution never changes any geographic point's reference set
  (precision preservation, Figure 4 of the paper),
* the merge sweep — bulk, and over existing rows plus new cells — and the
  paper's incremental insert (``oracles.ListingOneCovering``) produce
  identical results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.cells import CellId, CovererOptions, RegionCoverer
from repro.cells.vectorized import tile_leaf_ranges
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering, build_super_covering

BASE = CellId.from_degrees(40.7, -74.0)


@st.composite
def cell_inside_base(draw):
    """A random descendant of BASE.parent(6) between levels 7 and 16."""
    level = draw(st.integers(min_value=7, max_value=16))
    cell = BASE.parent(6)
    for _ in range(level - 6):
        cell = cell.child(draw(st.integers(min_value=0, max_value=3)))
    return cell


@st.composite
def polygon_coverings(draw):
    """Random per-polygon coverings over a shared area (forcing conflicts)."""
    num_polygons = draw(st.integers(min_value=1, max_value=4))
    result = []
    for pid in range(num_polygons):
        covering = draw(st.lists(cell_inside_base(), min_size=1, max_size=6))
        interior = draw(st.lists(cell_inside_base(), min_size=0, max_size=3))
        result.append((pid, covering, interior))
    return result


def reference_refs_at(per_polygon, leaf: CellId) -> frozenset:
    """Ground truth: refs a leaf should see = union over input cells
    containing it, interior dominating."""
    interior = set()
    seen = set()
    for pid, covering, interior_cells in per_polygon:
        if any(cell.contains(leaf) for cell in covering):
            seen.add(pid)
        if any(cell.contains(leaf) for cell in interior_cells):
            seen.add(pid)
            interior.add(pid)
    return frozenset(PolygonRef(pid, pid in interior) for pid in seen)


def _cells_covering_leaf_range(lo: int, hi: int) -> list[CellId]:
    """The production tiler on one inclusive leaf interval, in curve order."""
    cells, _ = tile_leaf_ranges(
        np.asarray([lo], dtype=np.uint64), np.asarray([hi + 2], dtype=np.uint64)
    )
    return [CellId(raw) for raw in sorted(cells.tolist())]


def probe_refs(covering: SuperCovering, leaf: CellId) -> frozenset:
    found = covering.find_containing(leaf.id)
    return frozenset(found[1]) if found else frozenset()


class TestLeafRangeDecomposition:
    def test_whole_cell(self):
        cell = BASE.parent(10)
        pieces = list(
            _cells_covering_leaf_range(cell.range_min().id, cell.range_max().id)
        )
        assert pieces == [cell]

    def test_minus_first_child(self):
        cell = BASE.parent(10)
        first = next(cell.children())
        pieces = list(
            _cells_covering_leaf_range(
                first.range_max().id + 2, cell.range_max().id
            )
        )
        assert sorted(p.id for p in pieces) == sorted(
            c.id for c in list(cell.children())[1:]
        )

    def test_single_leaf(self):
        leaf = BASE
        pieces = list(_cells_covering_leaf_range(leaf.id, leaf.id))
        assert pieces == [leaf]

    @settings(max_examples=50)
    @given(cell_inside_base(), cell_inside_base())
    def test_tiles_exactly(self, a, b):
        lo = min(a.range_min().id, b.range_min().id)
        hi = max(a.range_max().id, b.range_max().id)
        pieces = list(_cells_covering_leaf_range(lo, hi))
        spans = sorted((p.range_min().id, p.range_max().id) for p in pieces)
        assert spans[0][0] == lo
        assert spans[-1][1] == hi
        for (_, prev_hi), (next_lo, _) in zip(spans, spans[1:]):
            assert prev_hi + 2 == next_lo


class TestIncrementalInsert:
    def test_duplicate_merges_refs(self):
        covering = SuperCovering()
        cell = BASE.parent(10)
        covering.insert(cell, [PolygonRef(1, False)])
        covering.insert(cell, [PolygonRef(2, False)])
        assert covering.refs_for(cell) == (PolygonRef(1, False), PolygonRef(2, False))
        assert covering.num_cells == 1

    def test_descendant_into_ancestor_splits(self):
        covering = SuperCovering()
        ancestor = BASE.parent(8)
        descendant = BASE.parent(10)
        covering.insert(ancestor, [PolygonRef(1, False)])
        covering.insert(descendant, [PolygonRef(2, True)])
        covering.check_disjoint()
        # 3 siblings per level between 8 and 10, plus the descendant.
        assert covering.num_cells == 3 * 2 + 1
        assert probe_refs(covering, BASE) == frozenset(
            {PolygonRef(1, False), PolygonRef(2, True)}
        )

    def test_ancestor_over_descendant_splits(self):
        covering = SuperCovering()
        ancestor = BASE.parent(8)
        descendant = BASE.parent(10)
        covering.insert(descendant, [PolygonRef(2, True)])
        covering.insert(ancestor, [PolygonRef(1, False)])
        covering.check_disjoint()
        assert covering.num_cells == 7
        assert probe_refs(covering, BASE) == frozenset(
            {PolygonRef(1, False), PolygonRef(2, True)}
        )

    def test_interior_dominates_after_conflict(self):
        covering = SuperCovering()
        cell = BASE.parent(9)
        covering.insert(cell, [PolygonRef(1, False)])
        covering.insert(cell.child(0), [PolygonRef(1, True)])
        refs = probe_refs(covering, BASE)
        # BASE falls in child 0? Not necessarily; check the child-0 region.
        leaf_in_child0 = CellId(cell.child(0).range_min().id)
        assert probe_refs(covering, leaf_in_child0) == frozenset({PolygonRef(1, True)})

    def test_find_containing_miss(self):
        covering = SuperCovering()
        covering.insert(BASE.parent(10), [PolygonRef(1, False)])
        other = CellId.from_degrees(-33.0, 151.0)
        assert covering.find_containing(other.id) is None


class TestBulkVsIncremental:
    @settings(max_examples=40, deadline=None)
    @given(polygon_coverings())
    def test_equivalence(self, per_polygon):
        bulk = build_super_covering(per_polygon)
        resweep = SuperCovering()
        incremental = oracles.ListingOneCovering()
        for pid, covering, interior in per_polygon:
            resweep.insert_covering(pid, covering, interior)
            incremental.insert_covering(pid, covering, interior)
        bulk.check_disjoint()
        resweep.check_disjoint()
        assert oracles.covering_dict(bulk) == incremental.refs
        assert oracles.covering_dict(resweep) == incremental.refs

    @settings(max_examples=40, deadline=None)
    @given(polygon_coverings(), st.lists(cell_inside_base(), min_size=1, max_size=8))
    def test_precision_preservation(self, per_polygon, probe_cells):
        """Every leaf sees exactly the union of input references."""
        covering = build_super_covering(per_polygon)
        covering.check_disjoint()
        for cell in probe_cells:
            leaf = CellId(cell.range_min().id)
            assert probe_refs(covering, leaf) == reference_refs_at(per_polygon, leaf)

    @settings(max_examples=30, deadline=None)
    @given(polygon_coverings())
    def test_disjointness(self, per_polygon):
        covering = build_super_covering(per_polygon)
        covering.check_disjoint()


@st.composite
def nested_rows(draw):
    """Rows ``(cell, refs)`` that nest arbitrarily deep, repeat cells, name
    one polygon as candidate *and* true hit on the same cell, and carry
    several references at once (the insert-into-existing case)."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            cell = draw(st.sampled_from(rows))[0]  # a duplicate, or a descendant
            for _ in range(draw(st.integers(0, 4))):
                if cell.level < 30:
                    cell = cell.child(draw(st.integers(0, 3)))
        else:
            cell = draw(cell_inside_base())
        refs = draw(
            st.lists(
                st.builds(PolygonRef, st.integers(0, 3), st.booleans()),
                min_size=1,
                max_size=4,
            )
        )
        rows.append((cell, refs))
    return rows


class TestSweepVsListingOne:
    @settings(max_examples=120, deadline=None)
    @given(nested_rows(), st.randoms(use_true_random=False))
    def test_any_insertion_order(self, rows, random):
        listing = oracles.ListingOneCovering()
        for cell, refs in rows:
            listing.insert(cell, refs)
        shuffled = list(rows)
        random.shuffle(shuffled)
        covering = SuperCovering()
        for cell, refs in shuffled:
            covering.insert(cell, refs)
            covering.check_disjoint()
        assert oracles.covering_dict(covering) == listing.refs

    @settings(max_examples=60, deadline=None)
    @given(nested_rows(), nested_rows())
    def test_merging_a_covering_into_a_covering(self, left_rows, right_rows):
        """``merge`` inserts pre-aggregated multi-reference rows."""
        left, right = SuperCovering(), SuperCovering()
        for cell, refs in left_rows:
            left.insert(cell, refs)
        for cell, refs in right_rows:
            right.insert(cell, refs)
        listing = oracles.ListingOneCovering(oracles.covering_dict(left))
        for cell, refs in right.items():
            listing.insert(cell, refs)
        left.merge(right)
        left.check_disjoint()
        assert oracles.covering_dict(left) == listing.refs

    @pytest.mark.parametrize("precision_meters", [None, 60.0])
    def test_churn_insert_stream(self, precision_meters):
        """Re-sweeping *delta + new* equals the incremental insert at every
        step of the churn benchmark's 48-insert stream."""
        from repro.core.builder import cover_polygon
        from repro.core.precision import refine_to_precision
        from repro.datasets.workloads import polygon_churn_workload

        workload = polygon_churn_workload(
            num_initial=16, num_ops=48, insert_fraction=1.0, seed=11
        )
        polygons = list(workload.initial)
        delta = SuperCovering()
        listing = oracles.ListingOneCovering()
        inserts = [op.polygon for op in workload.ops if op.kind == "insert"]
        assert len(inserts) == 48
        for polygon in inserts:
            pid = len(polygons)
            polygons.append(polygon)
            covering, interior = cover_polygon(polygon)
            if precision_meters is None:
                delta.insert_covering(pid, covering, interior)
                listing.insert_covering(pid, covering, interior)
            else:
                refined = SuperCovering()
                refined.insert_covering(pid, covering, interior)
                refine_to_precision(refined, polygons, precision_meters)
                delta.merge(refined)
                for cell, refs in refined.items():
                    listing.insert(cell, refs)
            assert oracles.covering_dict(delta) == listing.refs


class TestAttach:
    """``attach`` wraps buffers from outside the program: it validates
    them and sorts an old file's build-ordered ids."""

    def _arrays(self):
        covering = SuperCovering()
        covering.insert(BASE.parent(8), [PolygonRef(1, False), PolygonRef(3, True)])
        covering.insert(BASE.parent(10), [PolygonRef(2, True)])
        return covering, (
            covering.cell_ids, covering.ref_offsets, covering.packed_refs
        )

    def test_sorted_buffers_are_wrapped_as_they_are(self):
        covering, (cell_ids, ref_offsets, packed_refs) = self._arrays()
        attached = SuperCovering.attach(cell_ids, ref_offsets, packed_refs)
        assert attached.cell_ids is cell_ids
        assert attached.ref_offsets is ref_offsets
        assert attached.packed_refs is packed_refs

    def test_unsorted_ids_are_sorted_with_their_rows(self):
        covering, (cell_ids, ref_offsets, packed_refs) = self._arrays()
        order = np.random.default_rng(3).permutation(len(cell_ids))
        assert list(order) != sorted(order)
        counts = np.diff(ref_offsets)[order]
        shuffled_offsets = np.concatenate([[0], np.cumsum(counts)])
        shuffled_refs = np.concatenate(
            [packed_refs[ref_offsets[row] : ref_offsets[row + 1]] for row in order]
        )
        attached = SuperCovering.attach(
            cell_ids[order], shuffled_offsets, shuffled_refs
        )
        assert oracles.covering_dict(attached) == oracles.covering_dict(covering)
        assert np.array_equal(attached.cell_ids, cell_ids)

    @pytest.mark.parametrize(
        "corrupt, buffer",
        [
            (lambda ids, offsets, refs: (ids, offsets[:-1], refs), "ref_offsets"),
            (lambda ids, offsets, refs: (ids, offsets + 1, refs), "ref_offsets"),
            (
                lambda ids, offsets, refs: (
                    ids, np.concatenate([offsets[:1], offsets[:0:-1]]), refs
                ),
                "ref_offsets",
            ),
            (lambda ids, offsets, refs: (ids, offsets, refs[:-1]), "packed_refs"),
            (
                lambda ids, offsets, refs: (
                    np.concatenate([ids[:-1], [np.uint64(0)]]), offsets, refs
                ),
                "cell_ids",
            ),
            (
                lambda ids, offsets, refs: (
                    np.concatenate([ids[:-1], [ids[0] << np.uint64(1)]]), offsets, refs
                ),
                "cell_ids",
            ),
            (
                lambda ids, offsets, refs: (
                    np.concatenate([ids[:-1], [np.uint64((7 << 61) | 1)]]),
                    offsets,
                    refs,
                ),
                "cell_ids",
            ),
            (
                lambda ids, offsets, refs: (
                    np.concatenate([ids[:-1], ids[:1]]), offsets, refs
                ),
                "cell_ids",
            ),
        ],
        ids=[
            "short offsets", "offsets not from 0", "decreasing offsets",
            "offsets overrun the refs", "zero id", "lsb at an odd bit",
            "face 7", "duplicate id",
        ],
    )
    def test_corrupt_buffers_raise_naming_the_buffer(self, corrupt, buffer):
        _, arrays = self._arrays()
        with pytest.raises(ValueError, match=buffer):
            SuperCovering.attach(*corrupt(*arrays))


class TestRealPolygons:
    def test_grid_covering_disjoint_and_complete(self, overlap_grid_polygons):
        coverer = RegionCoverer(CovererOptions(max_cells=64, max_level=16))
        interior = RegionCoverer(CovererOptions(max_cells=64, max_level=14))
        per = [
            (pid, coverer.covering(p), interior.interior_covering(p))
            for pid, p in enumerate(overlap_grid_polygons)
        ]
        covering = build_super_covering(per)
        covering.check_disjoint()
        assert covering.num_cells > 0
        histogram = covering.level_histogram()
        assert sum(histogram.values()) == covering.num_cells

    def test_replace_cell(self):
        covering = SuperCovering()
        cell = BASE.parent(10)
        covering.insert(cell, [PolygonRef(1, False)])
        children = list(cell.children())
        covering.replace_cells(
            [cell.id], [children[0].id], [0, 1], [PolygonRef(1, True).packed()]
        )
        assert covering.num_cells == 1
        assert covering.refs_for(children[0]) == (PolygonRef(1, True),)
        with pytest.raises(ValueError, match="outside every removed cell"):
            covering.replace_cells(
                [children[0].id], [children[1].id], [0, 1], [PolygonRef(1, True).packed()]
            )
        with pytest.raises(KeyError):
            covering.replace_cells([cell.id], [], [0], [])
