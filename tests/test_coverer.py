"""Tests for the region coverer: correctness and normalization invariants."""

import numpy as np
import pytest

from repro.cells import CellId, CovererOptions, RegionCoverer, cell_ids_from_lat_lng_arrays
from repro.cells.coverer import normalize_covering
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon


def covering_contains(cells, leaf_ids: np.ndarray) -> np.ndarray:
    ordered = sorted(cells, key=lambda c: c.id)
    lows = np.asarray([c.range_min().id for c in ordered], dtype=np.uint64)
    highs = np.asarray([c.range_max().id for c in ordered], dtype=np.uint64)
    slot = np.searchsorted(lows, leaf_ids, side="right").astype(np.int64) - 1
    clamped = np.clip(slot, 0, len(ordered) - 1)
    return (slot >= 0) & (leaf_ids <= highs[clamped])


@pytest.fixture(scope="module")
def polygon():
    return regular_polygon((-73.97, 40.75), 0.02, 24)


@pytest.fixture(scope="module")
def samples():
    generator = np.random.default_rng(31)
    lngs = generator.uniform(-74.0, -73.94, 20000)
    lats = generator.uniform(40.72, 40.78, 20000)
    return lngs, lats, cell_ids_from_lat_lng_arrays(lats, lngs)


class TestCovering:
    def test_covers_every_inside_point(self, polygon, samples):
        lngs, lats, ids = samples
        covering = RegionCoverer().covering(polygon)
        inside = contains_points(polygon, lngs, lats)
        in_covering = covering_contains(covering, ids)
        assert not np.any(inside & ~in_covering)

    def test_respects_max_cells(self, polygon):
        for max_cells in (8, 32, 128):
            covering = RegionCoverer(CovererOptions(max_cells=max_cells)).covering(polygon)
            assert len(covering) <= max_cells

    def test_respects_max_level(self, polygon):
        covering = RegionCoverer(CovererOptions(max_level=10)).covering(polygon)
        assert max(c.level for c in covering) <= 10

    def test_more_cells_tighter_covering(self, polygon, samples):
        lngs, lats, ids = samples
        coarse = RegionCoverer(CovererOptions(max_cells=8)).covering(polygon)
        fine = RegionCoverer(CovererOptions(max_cells=256)).covering(polygon)
        coarse_hits = covering_contains(coarse, ids).sum()
        fine_hits = covering_contains(fine, ids).sum()
        assert fine_hits <= coarse_hits

    def test_normalized_disjoint(self, polygon):
        covering = RegionCoverer().covering(polygon)
        ordered = sorted(covering, key=lambda c: c.id)
        for a, b in zip(ordered, ordered[1:]):
            assert a.range_max().id < b.range_min().id


class TestInteriorCovering:
    def test_no_false_true_hits(self, polygon, samples):
        lngs, lats, ids = samples
        interior = RegionCoverer(CovererOptions(max_cells=256, max_level=20)).interior_covering(polygon)
        inside = contains_points(polygon, lngs, lats)
        in_interior = covering_contains(interior, ids)
        assert not np.any(in_interior & ~inside)

    def test_interior_nonempty_for_fat_polygon(self, polygon):
        interior = RegionCoverer(CovererOptions(max_cells=256, max_level=20)).interior_covering(polygon)
        assert len(interior) > 0

    def test_interior_empty_when_budget_tiny(self):
        thin = regular_polygon((-73.97, 40.75), 0.00001, 6)
        interior = RegionCoverer(CovererOptions(max_cells=4, max_level=8)).interior_covering(thin)
        assert interior == []

    def test_covers_most_interior_mass(self, polygon, samples):
        lngs, lats, ids = samples
        interior = RegionCoverer(CovererOptions(max_cells=256, max_level=20)).interior_covering(polygon)
        inside = contains_points(polygon, lngs, lats)
        in_interior = covering_contains(interior, ids)
        # A 256-cell interior covering captures the bulk of a convex polygon.
        assert in_interior.sum() > 0.8 * inside.sum()


class TestNormalize:
    def test_merges_complete_sibling_groups(self):
        parent = CellId.from_degrees(40.7, -74.0).parent(10)
        assert normalize_covering(list(parent.children())) == [parent]

    def test_merges_recursively(self):
        parent = CellId.from_degrees(40.7, -74.0).parent(10)
        grandchildren = [gc for child in parent.children() for gc in child.children()]
        assert normalize_covering(grandchildren) == [parent]

    def test_drops_contained_cells(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(10)
        descendant = cell.child(2).child(1)
        assert normalize_covering([cell, descendant]) == [cell]

    def test_drops_duplicates(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(10)
        assert normalize_covering([cell, cell]) == [cell]

    def test_incomplete_sibling_group_not_merged(self):
        parent = CellId.from_degrees(40.7, -74.0).parent(10)
        three = list(parent.children())[:3]
        assert normalize_covering(three) == sorted(three, key=lambda c: c.id)

    def test_empty(self):
        assert normalize_covering([]) == []


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            CovererOptions(max_cells=2)
        with pytest.raises(ValueError):
            CovererOptions(min_level=5, max_level=4)
        with pytest.raises(ValueError):
            CovererOptions(max_level=31)


class TestAntimeridianWidening:
    """A known defect, pinned: ``bound_rects_for_cell_ids`` widens every
    antimeridian-crossing cell to lng [-180, 180], so the face-3 column at
    lng ~ +-180 intersects every polygon in its latitude band and joins
    every covering (about a third of the neighborhoods' covering cells;
    interior coverings have none).  Fixing it changes the benchmark's
    result fingerprints, so it waits for a benchmark change that
    re-records them; this test then passes and must lose its mark."""

    @pytest.mark.xfail(strict=True, reason="antimeridian cells widen to the full lng range")
    def test_nyc_covering_has_no_face_3_cell(self):
        from repro.core.builder import cover_polygon
        from repro.datasets import polygon_dataset

        covering, interior = cover_polygon(polygon_dataset("boroughs")[0])
        assert not [cell for cell in interior if cell.face == 3]
        assert not [cell for cell in covering if cell.face == 3]
