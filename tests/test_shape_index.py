"""Tests for the SI baseline: the S2ShapeIndex analog."""

import numpy as np
import pytest

from repro.baselines import ShapeIndex
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon


@pytest.fixture(scope="module")
def polygons():
    return [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]


@pytest.fixture(scope="module")
def points():
    generator = np.random.default_rng(41)
    lngs = generator.uniform(-74.04, -73.92, 15_000)
    lats = generator.uniform(40.66, 40.78, 15_000)
    return lngs, lats, cell_ids_from_lat_lng_arrays(lats, lngs)


@pytest.fixture(scope="module")
def brute(polygons, points):
    lngs, lats, _ = points
    return np.vstack([contains_points(p, lngs, lats) for p in polygons])


class TestCorrectness:
    @pytest.mark.parametrize("max_edges", [1, 4, 10])
    def test_join_matches_brute_force(self, polygons, points, brute, max_edges):
        lngs, lats, ids = points
        index = ShapeIndex(polygons, max_edges_per_cell=max_edges, max_level=17)
        result = index.join(ids, lngs, lats)
        assert (result.counts == brute.sum(axis=1)).all()

    def test_materialized_pairs(self, polygons, points, brute):
        lngs, lats, ids = points
        index = ShapeIndex(polygons, max_edges_per_cell=10, max_level=16)
        result = index.join(ids, lngs, lats, materialize=True)
        got = np.zeros_like(brute)
        got[result.pair_polygons, result.pair_points] = True
        assert (got == brute).all()

    def test_holed_polygon(self, holed_polygon):
        generator = np.random.default_rng(43)
        lngs = generator.uniform(-74.012, -73.988, 5000)
        lats = generator.uniform(40.698, 40.722, 5000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        index = ShapeIndex([holed_polygon], max_edges_per_cell=2, max_level=18)
        result = index.join(ids, lngs, lats)
        expected = contains_points(holed_polygon, lngs, lats).sum()
        assert result.counts[0] == expected

    def test_empty_polygon_list(self):
        index = ShapeIndex([], max_edges_per_cell=10)
        ids = cell_ids_from_lat_lng_arrays(np.asarray([40.7]), np.asarray([-74.0]))
        result = index.join(ids, np.asarray([-74.0]), np.asarray([40.7]))
        assert result.num_pairs == 0


class TestStructure:
    def test_finer_config_builds_more_cells(self, polygons):
        si10 = ShapeIndex(polygons, max_edges_per_cell=10, max_level=17)
        si1 = ShapeIndex(polygons, max_edges_per_cell=1, max_level=17)
        assert si1.num_cells > si10.num_cells

    def test_max_edges_respected_below_level_cap(self, polygons):
        max_level = 17
        index = ShapeIndex(polygons, max_edges_per_cell=4, max_level=max_level)
        for record in range(index.num_records):
            if index._rec_true[record]:
                continue
            width = index._rec_bucket[record]
            # Bucket width bounds the edge count; only level-capped cells
            # may exceed the configured maximum.
            leaf_idx = index._rec_leaf[record]
            # Reconstruct the leaf's level from its range span.
            span = int(index._highs[leaf_idx]) - int(index._lows[leaf_idx])
            level = 30 - (span + 2).bit_length() // 2
            if level < max_level:
                assert width <= 8  # next power of two above 4

    def test_validation(self, polygons):
        with pytest.raises(ValueError):
            ShapeIndex(polygons, max_edges_per_cell=0)
        with pytest.raises(ValueError):
            ShapeIndex(polygons, max_level=0)

    def test_names(self, polygons):
        assert ShapeIndex(polygons[:1], max_edges_per_cell=1, max_level=12).name == "SI1"
        assert ShapeIndex(polygons[:1], max_edges_per_cell=10, max_level=12).name == "SI10"

    def test_true_hit_filtering_present(self, polygons, points):
        """Interior cells let many points skip the edge tests entirely."""
        lngs, lats, ids = points
        index = ShapeIndex(polygons, max_edges_per_cell=10, max_level=16)
        result = index.join(ids, lngs, lats)
        assert result.num_true_hit_pairs > 0

    def test_size_accounting(self, polygons):
        index = ShapeIndex(polygons, max_edges_per_cell=10, max_level=15)
        assert index.size_bytes == (
            16 * index.num_cells + 16 * index.num_records + 4 * index.num_edge_slots
        )
