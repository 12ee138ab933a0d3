"""Tests for the PolygonIndex facade."""

import numpy as np
import pytest

from repro.baselines import BTreeStore, SortedVectorStore
from repro.core import LookupTable, PolygonIndex, accurate_join
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon


@pytest.fixture(scope="module")
def polygons():
    return [
        regular_polygon((-74.00, 40.70), 0.005, 12),
        regular_polygon((-73.98, 40.70), 0.005, 12),
        regular_polygon((-74.00, 40.72), 0.005, 12),
    ]


@pytest.fixture(scope="module")
def points():
    generator = np.random.default_rng(3)
    lngs = generator.uniform(-74.01, -73.97, 10_000)
    lats = generator.uniform(40.69, 40.73, 10_000)
    return lngs, lats


class TestBuild:
    def test_default_build(self, polygons):
        index = PolygonIndex.build(polygons)
        assert index.num_cells > 0
        assert index.precision_meters is None
        assert index.size_bytes > 0

    def test_precision_build(self, polygons):
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        assert index.precision_meters == 60.0

    def test_timings_populated(self, polygons):
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        timings = index.timings
        assert timings.individual_coverings_seconds > 0
        assert timings.super_covering_seconds > 0
        assert timings.refinement_seconds > 0
        assert timings.store_build_seconds > 0
        assert timings.total_seconds >= timings.refinement_seconds

    @pytest.mark.parametrize("factory", [SortedVectorStore, BTreeStore])
    def test_alternative_store_factory(self, polygons, points, factory):
        """A baseline store is built over the index's covering and joined
        through the kernel, beside the index — not as a mode of it."""
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        table = LookupTable()
        alt = accurate_join(
            factory(index.super_covering, table),
            table,
            index.cell_ids_for(lats, lngs),
            index.polygons,
            lngs,
            lats,
        )
        act = index.join(lats, lngs, exact=True)
        assert (act.counts == alt.counts).all()
        assert act.num_pairs == alt.num_pairs

    def test_non_act_store_rejected_at_the_door(self, polygons):
        """The one check that replaces the per-feature rejections
        (add_polygon, retrained, pack_index, save_index): an index over
        anything but an ACT cannot be constructed."""
        index = PolygonIndex.build(polygons)
        table = LookupTable()
        with pytest.raises(TypeError, match="AdaptiveCellTrie"):
            PolygonIndex(
                polygons,
                index.super_covering,
                SortedVectorStore(index.super_covering, table),
                table,
                index.timings,
                None,
                None,
            )

    def test_fanout_bits_forwarded(self, polygons):
        index = PolygonIndex.build(polygons, fanout_bits=2)
        assert index.store.name == "ACT1"


class TestQueries:
    def test_join_exact_matches_brute(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        brute = np.array([contains_points(p, lngs, lats).sum() for p in polygons])
        result = index.join(lats, lngs, exact=True)
        assert (result.counts == brute).all()

    def test_join_with_precomputed_cell_ids(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        ids = index.cell_ids_for(lats, lngs)
        a = index.join(lats, lngs, exact=True)
        b = index.join(lats, lngs, exact=True, cell_ids=ids)
        assert (a.counts == b.counts).all()

    def test_join_multithreaded(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        serial = index.join(lats, lngs)
        parallel = index.join(lats, lngs, num_threads=2)
        assert (serial.counts == parallel.counts).all()

    def test_containing_polygons(self, polygons):
        index = PolygonIndex.build(polygons)
        assert index.containing_polygons(40.70, -74.00) == [0]
        assert index.containing_polygons(40.70, -73.98) == [1]
        assert index.containing_polygons(40.75, -73.90) == []

    def test_describe(self, polygons):
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        info = index.describe()
        assert info["num_polygons"] == 3
        assert info["precision_meters"] == 60.0
        assert info["store"]["variant"] == "ACT4"


class TestAddPolygon:
    def test_add_polygon_queryable(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        new_polygon = regular_polygon((-73.98, 40.72), 0.005, 12)
        new_pid = index.add_polygon(new_polygon)
        assert new_pid == 3
        brute = contains_points(new_polygon, lngs, lats).sum()
        result = index.join(lats, lngs, exact=True)
        assert result.counts[new_pid] == brute

    def test_add_polygon_preserves_existing(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        before = index.join(lats, lngs, exact=True).counts.copy()
        index.add_polygon(regular_polygon((-73.98, 40.72), 0.005, 12))
        after = index.join(lats, lngs, exact=True)
        assert (after.counts[:3] == before).all()

    def test_add_polygon_with_precision(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        index.add_polygon(regular_polygon((-73.98, 40.72), 0.005, 12))
        all_polygons = index.polygons
        brute = np.array([contains_points(p, lngs, lats).sum() for p in all_polygons])
        result = index.join(lats, lngs, exact=True)
        assert (result.counts == brute).all()
