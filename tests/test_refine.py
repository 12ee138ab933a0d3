"""Tests for the refinement engine (repro.geo.refine).

The engine's contract is *bit-identical* accept/reject decisions with the
brute-force paths it replaces: ``RefinementEngine.contains`` against
``contains_points``, and ``RefinementEngine.refine`` against the
historical per-polygon-mask loop (``oracles.refine_candidates_masks``) —
through the one bucket table and its one crossing kernel, whatever the
batch size, the chunking, the bucket count a table was packed with, or
how hostile the coordinates are.
"""

import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core import PolygonIndex, load_index, save_index
from repro.core.dynamic import DynamicPolygonIndex
from repro.core.flat import _attach_refiner_table, _pack_refiner_table
from repro.core.joins import accurate_join, decode_entries
from repro.datasets import polygon_dataset
from repro.geo import refine as refine_module
from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon, regular_polygon
from repro.geo.refine import RefinementEngine, _bucket_rows

from oracles import refine_candidates_masks

FIXTURE_V3 = pathlib.Path(__file__).parent / "data" / "index_v3.npy"


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
        pairs = decode_entries(index.store.probe(cell_ids), index.store.lookup_table)
        baseline = refine_candidates_masks(*pairs, index.polygons, lngs, lats)
        engine = RefinementEngine(tuple(index.polygons))
        fast = engine.refine(*pairs, lngs, lats)
        assert (baseline[0] == fast[0]).all()  # kept point indices
        assert (baseline[1] == fast[1]).all()  # kept polygon ids
        assert baseline[2] == fast[2]  # PIP tests
        assert baseline[3] == fast[3]  # distinct refined points

    def test_accurate_join_counts_match_brute_force(self, built_index):
        index, lngs, lats, cell_ids = built_index
        result = accurate_join(
            index.store, cell_ids, index.polygons,
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
        pairs = decode_entries(index.store.probe(cell_ids), index.store.lookup_table)
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
            index.store, cell_ids, index.polygons,
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


def _table_with_empty_rows():
    """A square's table re-packed by hand so that bucket rows 1 and 3 of
    its 4 own no edge slots (as an adopted snapshot's table may): the two
    vertical edges sit in rows 0 and 2 only."""
    square = Polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    buffers = _pack_refiner_table(RefinementEngine((square,)).table())
    buffers["ref_num_buckets"] = np.array([4], dtype=np.int64)
    buffers["ref_inv_bucket_height"] = np.array([2.0])  # 4 buckets over [-1, 1]
    buffers["ref_edge_start"] = np.array([0, 2, 2, 4, 4], dtype=np.int64)
    for name in ("ref_y0", "ref_y1", "ref_x0", "ref_dx", "ref_inv_dy"):
        buffers[name] = buffers[name][np.array([0, 1, 0, 1])]
    return square, _attach_refiner_table(buffers)


class TestChunking:
    """(a) ``_CHUNK_PAIRS`` only bounds temporaries: any chunk size gives
    the decisions of one chunk."""

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_decisions_equal_one_chunk(self, monkeypatch, chunk):
        rng = np.random.default_rng(17)
        polygons = (
            regular_polygon((0.0, 0.0), 1.0, 40), None,
            _random_star_polygon(rng), Polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
        )
        table = RefinementEngine(polygons).table()
        pids = rng.integers(0, len(polygons), 4000)
        lngs = rng.uniform(-2.0, 2.0, 4000)
        lats = rng.uniform(-2.0, 2.0, 4000)
        whole = table.test(pids, lngs, lats)
        assert whole.any() and not whole.all()
        monkeypatch.setattr(refine_module, "_CHUNK_PAIRS", chunk)
        assert (table.test(pids, lngs, lats) == whole).all()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_chunks_ending_on_zero_length_rows(self, monkeypatch, chunk):
        """Rows that own no slots decide False wherever a chunk boundary
        falls — including directly before, inside and after a run of them
        (``reduceat`` would otherwise return the element AT the offset)."""
        square, table = _table_with_empty_rows()
        # Latitudes cycle through rows 0 (2 slots), 1 (empty), 2, 3 (empty);
        # inside points of the empty rows must come out False, the others
        # as the brute-force test says.
        lats = np.tile(np.array([-0.75, -0.25, 0.25, 0.75]), 25)
        lats = np.concatenate([lats, np.full(9, 0.75), np.full(4, 0.25)])
        lngs = np.resize(np.array([0.0, 0.5, -3.0, 0.9, 2.0]), len(lats))
        pids = np.zeros(len(lats), dtype=np.int64)
        whole = table.test(pids, lngs, lats)
        in_live_row = (lats == -0.75) | (lats == 0.25)
        assert (whole == (contains_points(square, lngs, lats) & in_live_row)).all()
        assert whole.any()
        monkeypatch.setattr(refine_module, "_CHUNK_PAIRS", chunk)
        assert (table.test(pids, lngs, lats) == whole).all()
        # All-empty input: no chunk has a slot at all.
        empty = lats == 0.75
        assert not table.test(pids[empty], lngs[empty], lats[empty]).any()


def _hostile_polygon(kind: str, rng) -> Polygon:
    if kind == "star":
        return _random_star_polygon(rng)
    if kind == "triangle":  # 3 edges: 1 bucket until 1.15.0, 3 since
        return Polygon([(0.0, 0.0), (2.0, 0.5), (0.5, 2.0)])
    if kind == "over_cap":  # > _MAX_BUCKETS edges: buckets hold several
        return regular_polygon((0.0, 0.0), 1.0, refine_module._MAX_BUCKETS + 300)
    if kind == "hole_touches_shell":  # the hole shares vertex (1, 0)
        return Polygon(
            [(-1.0, -1.0), (1.0, 0.0), (-1.0, 1.0)],
            [[(1.0, 0.0), (-0.5, 0.25), (-0.5, -0.25)]],
        )
    assert kind == "degenerate"
    # Horizontal runs, a duplicated vertex and collinear vertices.
    return Polygon([
        (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0),
        (2.0, 2.0), (2.0, 2.0), (1.0, 2.0), (0.5, 1.5), (0.0, 1.0), (0.0, 0.5),
    ])


class TestHostileInputs:
    """(b) ``table.test == contains_points`` where the bucket arithmetic
    could go wrong: vertices, horizontal edges, bucket boundaries."""

    @given(
        kind=st.sampled_from(
            ["star", "triangle", "over_cap", "hole_touches_shell", "degenerate"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_contains_points(self, kind, seed):
        rng = np.random.default_rng(seed)
        polygon = _hostile_polygon(kind, rng)
        flat = Polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # edge-free
        table = RefinementEngine((None, polygon, flat)).table()
        num_buckets = int(table.num_buckets[1])
        x0, y0, x1, y1 = polygon.all_edges()
        expected_buckets = min(int((y0 != y1).sum()), refine_module._MAX_BUCKETS)
        assert num_buckets == expected_buckets

        # Every bucket-boundary latitude and its two float neighbours.
        boundaries = table.lat_origin[1] + (
            np.arange(num_buckets + 1) / table.inv_bucket_height[1]
        )
        lat_parts = [
            boundaries,
            np.nextafter(boundaries, -np.inf),
            np.nextafter(boundaries, np.inf),
            y0,  # vertex latitudes (and every horizontal edge's)
            rng.uniform(y0.min() - 0.1, y0.max() + 0.1, 200),
        ]
        horizontal = y0 == y1
        lat_grid = np.concatenate(lat_parts)
        lng_pool = np.concatenate([
            x0,  # vertex longitudes
            0.5 * (x0 + x1)[horizontal],  # on horizontal edges
            rng.uniform(x0.min() - 0.1, x0.max() + 0.1, 50),
        ])
        # Each vertex itself, then every special latitude against a
        # sample of special longitudes.
        lngs = np.concatenate([x0, rng.choice(lng_pool, len(lat_grid))])
        lats = np.concatenate([y0, lat_grid])
        # On-horizontal-edge points, exactly.
        lngs = np.concatenate([lngs, 0.5 * (x0 + x1)[horizontal]])
        lats = np.concatenate([lats, y0[horizontal]])

        brute = contains_points(polygon, lngs, lats)
        live = np.ones(len(lngs), dtype=np.int64)
        assert (table.test(live, lngs, lats) == brute).all()
        # The same points against a dead id and an edge-free polygon.
        pids = rng.integers(0, 3, len(lngs))
        assert (
            table.test(pids, lngs, lats) == (brute & (pids == 1))
        ).all()


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteCoordinates:
    """Input from outside: NaN / ±inf coordinates answer ``False`` —
    no exception and no floating-point warning, because the MBR filter
    keeps such a pair from the bucket arithmetic's integer cast."""

    @pytest.fixture()
    def engine(self):
        flat = Polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])  # edge-free
        return RefinementEngine(
            (regular_polygon((0.0, 0.0), 1.0, 12), None, flat)
        )

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("axis", ["lng", "lat", "both"])
    def test_contains_alone_and_mixed(self, engine, bad, axis):
        bad_lng = bad if axis in ("lng", "both") else 0.1
        bad_lat = bad if axis in ("lat", "both") else 0.1
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = engine.contains(0, np.array([bad_lng]), np.array([bad_lat]))
            mixed = engine.contains(
                0,
                np.array([0.0, bad_lng, 0.2, 5.0]),
                np.array([0.0, bad_lat, -0.2, 0.0]),
            )
        assert alone.tolist() == [False]
        assert mixed.tolist() == [True, False, True, False]

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("axis", ["lng", "lat", "both"])
    def test_refine_live_edge_free_and_dead(self, engine, bad, axis):
        lngs = np.array([0.0, bad if axis in ("lng", "both") else 0.1, 0.2])
        lats = np.array([0.0, bad if axis in ("lat", "both") else 0.1, -0.2])
        point_idx = np.array([0, 1, 2, 1, 1, 0])
        pids = np.array([0, 0, 0, 1, 2, 2])
        is_true = np.zeros(6, dtype=bool)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            kept_points, kept_pids, pip, refined = engine.refine(
                point_idx, pids, is_true, lngs, lats
            )
        assert kept_points.tolist() == [0, 2] and kept_pids.tolist() == [0, 0]
        assert pip == 6 and refined == 3

    def test_contains_on_dead_id_still_raises(self, engine):
        with pytest.raises(KeyError):
            engine.contains(1, np.array([np.nan]), np.array([0.0]))


class TestRefineOutputOrder:
    """(c) ``refine`` returns the mask loop's arrays element for element
    on the degenerate batch shapes."""

    @staticmethod
    def _assert_same(engine, polygons, point_idx, pids, is_true, lngs, lats):
        fast = engine.refine(point_idx, pids, is_true, lngs, lats)
        oracle = refine_candidates_masks(
            point_idx, pids, is_true, polygons, lngs, lats
        )
        assert np.array_equal(fast[0], oracle[0])
        assert np.array_equal(fast[1], oracle[1])
        assert fast[0].dtype == oracle[0].dtype and fast[1].dtype == oracle[1].dtype
        assert fast[2:] == oracle[2:]
        return fast

    def test_zero_candidates_zero_true_hits_all_rejected(self):
        polygons = tuple(
            regular_polygon((3.0 * k, 0.0), 1.0, 10) for k in range(3)
        )
        engine = RefinementEngine(polygons)
        rng = np.random.default_rng(2)
        lngs = rng.uniform(-1.0, 7.0, 500)
        lats = rng.uniform(-1.0, 1.0, 500)
        point_idx = rng.integers(0, 500, 900)
        pids = rng.integers(0, 3, 900)
        mixed = rng.random(900) < 0.4
        args = (engine, polygons, point_idx, pids)
        # Mixed batch: true hits first, then accepted candidates in order.
        fast = self._assert_same(*args, mixed, lngs, lats)
        num_true = int(mixed.sum())
        assert np.array_equal(fast[0][:num_true], point_idx[mixed])
        assert num_true < len(fast[0]) < 900
        # Zero candidates.
        fast = self._assert_same(*args, np.ones(900, dtype=bool), lngs, lats)
        assert fast[2:] == (0, 0) and len(fast[0]) == 900
        # Zero true hits.
        self._assert_same(*args, np.zeros(900, dtype=bool), lngs, lats)
        # All candidates rejected (every point far outside every polygon).
        fast = self._assert_same(
            *args, mixed, np.full(500, 50.0), np.full(500, 50.0)
        )
        assert np.array_equal(fast[0], point_idx[mixed])
        # Nothing at all.
        empty = np.zeros(0, dtype=np.int64)
        self._assert_same(
            engine, polygons, empty, empty, np.zeros(0, dtype=bool), lngs, lats
        )


class TestTableSizeAndAdoption:
    def test_size_bytes_sums_all_fourteen_arrays(self):
        """``warm()`` reports what a snapshot packs: built and adopted."""
        polygons = (regular_polygon((0.0, 0.0), 1.0, 8), None,
                    regular_polygon((3.0, 0.0), 1.0, 30))
        built = RefinementEngine(polygons)
        adopted = load_index(FIXTURE_V3).base.probe_view().refiner
        for engine in (built, adopted):
            packed = _pack_refiner_table(engine.table())
            assert len(packed) == 14
            assert engine.warm() == sum(a.nbytes for a in packed.values())

    def test_adopted_coarse_table_decides_like_a_fresh_one(self):
        """(d) ``index_v3.npy`` was packed with 1-4 buckets per polygon; the
        adopted table stays valid as it is and decides exactly as a table
        assembled today (one bucket per edge) from the same polygons."""
        view = load_index(FIXTURE_V3).base.probe_view()
        adopted = view.refiner.table()
        fresh = RefinementEngine(tuple(view.polygons)).table()
        live = [pid for pid, p in enumerate(view.polygons) if p is not None]
        assert adopted.num_buckets[live].max() <= 4
        assert (fresh.num_buckets[live] > adopted.num_buckets[live]).all()
        assert not adopted.y0.flags.writeable  # still the snapshot's views
        rng = np.random.default_rng(23)
        pids = rng.integers(0, len(view.polygons), 10_000)
        lngs = rng.uniform(-74.01, -73.97, 10_000)
        lats = rng.uniform(40.69, 40.73, 10_000)
        decided = adopted.test(pids, lngs, lats)
        assert (decided == fresh.test(pids, lngs, lats)).all()
        assert decided.any() and not decided.all()
        dead = np.array([p is None for p in view.polygons])
        assert not decided[dead[pids]].any()


class TestBucketRule:
    def test_one_bucket_per_edge_up_to_the_cap(self):
        for num_vertices in (3, 4, 100):
            polygon = regular_polygon((0.0, 0.0), 1.0, num_vertices)
            _, y0, _, y1 = polygon.all_edges()
            rows = _bucket_rows(polygon)
            assert len(rows.bucket_start) - 1 == int((y0 != y1).sum())
        big = regular_polygon((0.0, 0.0), 1.0, 3 * refine_module._MAX_BUCKETS)
        assert len(_bucket_rows(big).bucket_start) - 1 == refine_module._MAX_BUCKETS

    def test_slots_per_pair_on_border_points(self, monkeypatch):
        """(e) Count-based guard: on the refinement-bound benchmark's
        inputs an in-MBR candidate pair evaluates <= 5 edge slots (16.06 with
        the 64-bucket cap of 1.14.0; ~4 edges really cross a latitude)."""
        e2e = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
        monkeypatch.syspath_prepend(str(e2e))
        inputs = pytest.importorskip("e2ebench.inputs")
        polygons = polygon_dataset("boroughs")
        lats, lngs = inputs.border_points(polygons, 20_000, 11)
        index = PolygonIndex.build(polygons)
        point_idx, pids, is_true = decode_entries(
            index.store.probe(cell_ids_from_lat_lng_arrays(lats, lngs)),
            index.store.lookup_table,
        )
        cand = np.flatnonzero(~is_true)
        p, px, py = pids[cand], lngs[point_idx[cand]], lats[point_idx[cand]]
        table = index.probe_view().refiner.table()
        in_mbr = (
            (px >= table.mbr_lng_lo[p]) & (px <= table.mbr_lng_hi[p])
            & (py >= table.mbr_lat_lo[p]) & (py <= table.mbr_lat_hi[p])
        )
        p, py = p[in_mbr], py[in_mbr]
        rows = table.row_offset[p] + refine_module._bucket_index(
            py, table.lat_origin[p], table.inv_bucket_height[p], table.num_buckets[p]
        )
        slots = table.edge_start[rows + 1] - table.edge_start[rows]
        assert len(slots) > 10_000
        assert slots.mean() <= 5.0, slots.mean()


def test_numpy_idioms_the_kernel_relies_on():
    """Explicit checks for the NumPy-floor CI leg (``numpy==1.22.*``): the
    kernel's parity reduction, index-array moves and in-place steps."""
    hits = np.array([True, True, False, True, False, False, True])
    as_bytes = hits.view(np.uint8)
    assert as_bytes.dtype == np.uint8 and as_bytes.tolist() == [1, 1, 0, 1, 0, 0, 1]
    parity = np.bitwise_xor.reduceat(as_bytes, np.array([0, 2, 4, 6]))
    assert parity.dtype == np.uint8 and parity.tolist() == [0, 1, 0, 1]
    # reduceat's empty-segment quirk — the middle segment [3:3] owns no
    # slot yet reports element 3 — is why only rows owning slots are reduced.
    assert np.bitwise_xor.reduceat(as_bytes, np.array([0, 3, 3])).tolist() == [0, 1, 0]
    out = np.zeros(6, dtype=bool)
    out[np.array([5, 0, 2, 3])] = parity  # uint8 0/1 -> bool
    assert out.tolist() == [True, False, False, True, False, False]
    column = np.arange(10.0)[::-1]
    wrapped = column.take(np.array([0, -1, 3], dtype=np.int64))
    assert wrapped.tolist() == [9.0, 0.0, 6.0] and wrapped.flags.owndata
    rows = np.array([3, 4, 5], dtype=np.int64)
    rows += column.take(rows).astype(np.int64)
    rows += 1
    assert rows.dtype == np.int64 and rows.tolist() == [10, 10, 10]
    assert np.repeat(np.array([0.5, 1.5, 2.5]), np.array([2, 0, 1])).tolist() == [0.5, 0.5, 2.5]
