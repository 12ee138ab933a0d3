"""Tests for the refinement engine (repro.geo.refine).

The engine's contract is *bit-identical* accept/reject decisions with the
brute-force paths it replaces: ``RefinementEngine.contains`` against
``contains_points``, and ``RefinementEngine.refine`` against the
historical per-polygon-mask loop (``refine_candidates_masks``) — through
the one bucket table and its one crossing kernel, whatever the batch
size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core import PolygonIndex, load_index, save_index
from repro.core.dynamic import DynamicPolygonIndex
from repro.core.joins import (
    accurate_join,
    batch_probe,
    refine_candidates,
    refine_candidates_masks,
)
from repro.geo import refine as refine_module
from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon, regular_polygon
from repro.geo.refine import RefinementEngine, _bucket_rows


def _random_star_polygon(rng) -> Polygon:
    """A random simple star-shaped polygon around a random center."""
    num_vertices = int(rng.integers(3, 80))
    cx, cy = rng.uniform(-1.0, 1.0, 2)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, num_vertices))
    radii = rng.uniform(0.05, 1.0, num_vertices)
    pts = [(cx + r * np.cos(a), cy + r * np.sin(a)) for r, a in zip(radii, angles)]
    return Polygon(pts)


def _engine_contains(polygon: Polygon, lngs, lats) -> np.ndarray:
    """One polygon through the engine, in a slot next to a dead id."""
    return RefinementEngine((None, polygon)).contains(1, lngs, lats)


class TestPolygonAccelerator:
    """Single-kernel parity: the engine vs ``contains_points``.

    (The class keeps the name of the per-polygon accelerator it used to
    test; every per-polygon decision now goes through the bucket table.)
    """

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_contains_points(self, seed):
        rng = np.random.default_rng(seed)
        polygon = _random_star_polygon(rng)
        lngs = rng.uniform(-2.5, 2.5, 3000)
        lats = rng.uniform(-2.5, 2.5, 3000)
        brute = contains_points(polygon, lngs, lats)
        assert (brute == _engine_contains(polygon, lngs, lats)).all()

    def test_large_batch_against_many_edges(self):
        """30 000 points x a 400-gon: 12 M point x edge pairs brute force
        (the size that used to force a separate per-bucket loop)."""
        rng = np.random.default_rng(3)
        polygon = regular_polygon((0.0, 0.0), 1.0, 400)
        lngs = rng.uniform(-1.5, 1.5, 30_000)
        lats = rng.uniform(-1.5, 1.5, 30_000)
        assert len(_bucket_rows(polygon).bucket_start) - 1 > 1
        brute = contains_points(polygon, lngs, lats)
        assert (brute == _engine_contains(polygon, lngs, lats)).all()

    def test_polygon_with_hole(self, holed_polygon):
        rng = np.random.default_rng(5)
        lngs = rng.uniform(-74.02, -73.98, 20_000)
        lats = rng.uniform(40.69, 40.73, 20_000)
        brute = contains_points(holed_polygon, lngs, lats)
        fast = _engine_contains(holed_polygon, lngs, lats)
        assert (brute == fast).all()
        # The hole actually carves points out (the test is not vacuous).
        inside_hole = (
            (lngs > -74.006) & (lngs < -73.994)
            & (lats > 40.706) & (lats < 40.714)
        )
        assert not fast[inside_hole].any()
        assert fast.any()

    def test_horizontal_edges_and_boundary_latitudes(self):
        square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        lngs = np.linspace(-1.5, 1.5, 101)
        for lat in (-1.0, 0.0, 1.0):  # bottom edge, interior, top edge
            lats = np.full_like(lngs, lat)
            brute = contains_points(square, lngs, lats)
            assert (brute == _engine_contains(square, lngs, lats)).all()

    def test_empty_inputs(self):
        polygon = regular_polygon((0.0, 0.0), 1.0, 8)
        out = _engine_contains(polygon, np.zeros(0), np.zeros(0))
        assert out.shape == (0,) and out.dtype == bool

    def test_one_pair_batch(self):
        polygon = regular_polygon((0.0, 0.0), 1.0, 8)
        for lng in (0.0, 2.0):
            brute = contains_points(polygon, np.array([lng]), np.array([0.1]))
            fast = _engine_contains(polygon, np.array([lng]), np.array([0.1]))
            assert fast.shape == (1,) and fast[0] == brute[0]

    def test_edge_free_and_dead_slots_never_accept(self):
        """A polygon with no crossing-capable edge and a ``None`` slot both
        reject every candidate pair (like ``contains_points``)."""
        flat = Polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # all horizontal
        square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        engine = RefinementEngine((flat, None, square))
        lngs = np.array([0.5, 0.5, 0.5])
        lats = np.array([0.0, 0.0, 0.0])
        assert not contains_points(flat, lngs, lats).any()
        assert not engine.contains(0, lngs, lats).any()
        kept_points, kept_pids, pip, refined = engine.refine(
            np.arange(3), np.array([0, 1, 2]), np.zeros(3, dtype=bool), lngs, lats
        )
        assert kept_points.tolist() == [2] and kept_pids.tolist() == [2]
        assert pip == 3 and refined == 3

    def test_memoized_on_polygon(self):
        polygon = regular_polygon((0.0, 0.0), 1.0, 8)
        assert _bucket_rows(polygon) is _bucket_rows(polygon)
        assert polygon._refine_cache is _bucket_rows(polygon)

    def test_every_replicated_edge_is_real(self):
        """CSR replication covers each edge's full latitude interval."""
        polygon = regular_polygon((0.0, 0.0), 1.0, 100)
        rows = _bucket_rows(polygon)
        assert rows.bucket_start[0] == 0
        assert rows.bucket_start[-1] == rows.edges.shape[1]
        # Per-bucket edge counts are far below the full edge count.
        assert np.diff(rows.bucket_start).max() < polygon.num_edges
        # Every packed column is one of the polygon's own edges.
        x0, y0, x1, y1 = polygon.all_edges()
        real = {(a, b, c) for a, b, c in zip(y0, y1, x0)}
        y0p, y1p, x0p = rows.edges[:3]
        assert {(a, b, c) for a, b, c in zip(y0p, y1p, x0p)} <= real


@pytest.fixture(scope="module")
def built_index():
    polygons = [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]
    index = PolygonIndex.build(polygons, precision_meters=30.0)
    rng = np.random.default_rng(21)
    lngs = rng.uniform(-74.03, -73.93, 20_000)
    lats = rng.uniform(40.67, 40.77, 20_000)
    cell_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
    return index, lngs, lats, cell_ids


class TestRefinementEngine:
    def test_refine_matches_mask_baseline_bit_for_bit(self, built_index):
        index, lngs, lats, cell_ids = built_index
        pairs = batch_probe(index.store, index.lookup_table, cell_ids)
        baseline = refine_candidates_masks(*pairs, index.polygons, lngs, lats)
        engine = RefinementEngine(tuple(index.polygons))
        fast = engine.refine(*pairs, lngs, lats)
        assert (baseline[0] == fast[0]).all()  # kept point indices
        assert (baseline[1] == fast[1]).all()  # kept polygon ids
        assert baseline[2] == fast[2]  # PIP tests
        assert baseline[3] == fast[3]  # distinct refined points

    def test_refine_candidates_wrapper_builds_ephemeral_engine(self, built_index):
        index, lngs, lats, cell_ids = built_index
        pairs = batch_probe(index.store, index.lookup_table, cell_ids)
        baseline = refine_candidates_masks(*pairs, index.polygons, lngs, lats)
        wrapped = refine_candidates(*pairs, index.polygons, lngs, lats)
        assert (baseline[0] == wrapped[0]).all()
        assert (baseline[1] == wrapped[1]).all()

    def test_accurate_join_counts_match_brute_force(self, built_index):
        index, lngs, lats, cell_ids = built_index
        result = accurate_join(
            index.store, index.lookup_table, cell_ids, index.polygons,
            lngs, lats, engine=index.probe_view().refiner,
        )
        brute = np.vstack(
            [contains_points(p, lngs, lats) for p in index.polygons]
        )
        assert (result.counts == brute.sum(axis=1)).all()

    def test_probe_view_carries_engine(self, built_index):
        index, _, _, _ = built_index
        view = index.probe_view()
        assert view.refiner is not None
        assert view.refiner.num_polygons == len(index.polygons)
        # The cached view keeps one engine per snapshot.
        assert index.probe_view().refiner is view.refiner

    def test_empty_candidates(self):
        engine = RefinementEngine(())
        empty_i = np.zeros(0, dtype=np.int64)
        keep_points, keep_pids, pip, refined = engine.refine(
            empty_i, empty_i.copy(), np.zeros(0, dtype=bool),
            np.zeros(0), np.zeros(0),
        )
        assert len(keep_points) == len(keep_pids) == 0
        assert pip == 0 and refined == 0

    def test_warm_builds_all_live_accelerators(self):
        """``warm`` assembles the table, packing every live polygon's rows."""
        polygons = (regular_polygon((0.0, 0.0), 1.0, 8), None,
                    regular_polygon((3.0, 0.0), 1.0, 8))
        engine = RefinementEngine(polygons)
        assert engine.warm() == engine.table().size_bytes > 0
        assert polygons[0]._refine_cache is not None
        assert polygons[2]._refine_cache is not None

    def test_dead_polygon_raises(self):
        engine = RefinementEngine((None,))
        with pytest.raises(KeyError):
            engine.contains(0, np.zeros(1), np.zeros(1))

    def test_removed_options_raise(self):
        with pytest.raises(TypeError):
            RefinementEngine((), build_table=True)

    def test_small_and_large_batches_share_one_table(self, built_index):
        """No size switch: a 1-pair batch and the full batch run through
        the same table object, and both match the mask oracle."""
        index, lngs, lats, cell_ids = built_index
        pairs = batch_probe(index.store, index.lookup_table, cell_ids)
        engine = RefinementEngine(tuple(index.polygons))
        first = np.flatnonzero(~pairs[2])[:1]
        one = tuple(part[first] for part in pairs)
        baseline = refine_candidates_masks(*one, index.polygons, lngs, lats)
        fast = engine.refine(*one, lngs, lats)
        table = engine.table()
        assert (baseline[0] == fast[0]).all() and baseline[2:] == fast[2:] == (1, 1)
        engine.refine(*pairs, lngs, lats)
        assert engine.table() is table


class TestEngineIntegration:
    def test_survives_serialize_round_trip(self, built_index, tmp_path):
        index, lngs, lats, cell_ids = built_index
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path)
        view = loaded.probe_view()
        assert view.refiner is not None
        original = accurate_join(
            index.store, index.lookup_table, cell_ids, index.polygons,
            lngs, lats,
        )
        restored = loaded.join(lats, lngs, exact=True)
        assert (original.counts == restored.counts).all()

    def test_dynamic_overlay_carries_engine(self):
        polygons = [
            regular_polygon((-74.0 + k * 0.03, 40.70), 0.012, 14)
            for k in range(4)
        ]
        dynamic = DynamicPolygonIndex.build(polygons, compact_threshold=None)
        inserted = regular_polygon((-73.88, 40.70), 0.012, 14)
        new_id = dynamic.insert(inserted)
        dynamic.delete(0)
        view = dynamic.probe_view()
        assert view.refiner is not None
        rng = np.random.default_rng(9)
        lngs = rng.uniform(-74.05, -73.85, 10_000)
        lats = rng.uniform(40.65, 40.75, 10_000)
        result = dynamic.join(lats, lngs, exact=True)
        live = [None] * len(view.polygons)
        for pid, polygon in enumerate(view.polygons):
            if polygon is not None and pid != 0:
                live[pid] = polygon
        expected = np.zeros(len(view.polygons), dtype=np.int64)
        for pid, polygon in enumerate(live):
            if polygon is not None:
                expected[pid] = int(contains_points(polygon, lngs, lats).sum())
        assert (result.counts == expected).all()
        assert result.counts[new_id] > 0

    def test_snapshots_share_accelerators_through_polygons(self, monkeypatch):
        """The packed rows are shared by identity: a second engine, an
        overlay view and a compaction never re-bucket a surviving polygon."""
        polygons = [
            regular_polygon((-74.0 + k * 0.03, 40.70), 0.012, 12) for k in range(3)
        ]
        dynamic = DynamicPolygonIndex.build(polygons, compact_threshold=None)
        base_table = dynamic.probe_view().refiner.table()
        rows = [polygon._refine_cache for polygon in polygons]
        assert all(r is not None for r in rows)
        packed = []
        original = refine_module._pack_bucket_rows
        monkeypatch.setattr(
            refine_module,
            "_pack_bucket_rows",
            lambda polygon: packed.append(polygon) or original(polygon),
        )
        # A second engine over the same polygon objects reuses the arrays.
        RefinementEngine(tuple(polygons)).warm()
        # An overlay view (insert) and a compaction get their own tables
        # but keep the surviving polygons' rows.
        inserted = regular_polygon((-73.88, 40.70), 0.012, 12)
        dynamic.insert(inserted)
        assert dynamic.probe_view().refiner.table() is not base_table
        dynamic.compact()
        dynamic.probe_view().refiner.warm()
        assert packed == [inserted]  # no re-bucketing on a write
        for polygon, before in zip(dynamic.probe_view().polygons, rows):
            assert polygon._refine_cache is before
