"""Tests for index persistence (save_index / load_index)."""

import pathlib

import numpy as np
import pytest

from repro.core import PolygonIndex
from repro.core.serialize import load_index, save_index
from repro.geo.polygon import regular_polygon


@pytest.fixture(scope="module")
def polygons():
    return [
        regular_polygon((-74.00, 40.70), 0.006, 14),
        regular_polygon((-73.98, 40.70), 0.006, 9),
        regular_polygon((-74.00, 40.72), 0.006, 21),
    ]


@pytest.fixture(scope="module")
def points():
    generator = np.random.default_rng(61)
    lngs = generator.uniform(-74.01, -73.97, 8000)
    lats = generator.uniform(40.69, 40.73, 8000)
    return lngs, lats


class TestRoundTrip:
    def test_exact_join_preserved(self, polygons, points, tmp_path):
        lngs, lats = points
        original = PolygonIndex.build(polygons, precision_meters=60.0)
        path = tmp_path / "index.npz"
        save_index(original, path)
        restored = load_index(path)
        a = original.join(lats, lngs, exact=True)
        b = restored.join(lats, lngs, exact=True)
        assert (a.counts == b.counts).all()

    def test_approximate_join_preserved(self, polygons, points, tmp_path):
        lngs, lats = points
        original = PolygonIndex.build(polygons, precision_meters=60.0)
        path = tmp_path / "index.npz"
        save_index(original, path)
        restored = load_index(path)
        a = original.join(lats, lngs)
        b = restored.join(lats, lngs)
        assert (a.counts == b.counts).all()

    def test_metadata_preserved(self, polygons, tmp_path):
        original = PolygonIndex.build(polygons, precision_meters=15.0, fanout_bits=4)
        path = tmp_path / "index.npz"
        save_index(original, path)
        restored = load_index(path)
        assert restored.precision_meters == 15.0
        assert restored.store.fanout_bits == 4
        assert len(restored.polygons) == 3
        assert restored.num_cells == original.num_cells

    def test_polygon_geometry_preserved(self, polygons, tmp_path):
        original = PolygonIndex.build(polygons)
        path = tmp_path / "index.npz"
        save_index(original, path)
        restored = load_index(path)
        for a, b in zip(original.polygons, restored.polygons):
            assert np.allclose(a.outer.lngs, b.outer.lngs)
            assert np.allclose(a.outer.lats, b.outer.lats)

    def test_trained_index_roundtrip(self, polygons, points, tmp_path):
        from repro.cells import cell_ids_from_lat_lng_arrays

        lngs, lats = points
        train_ids = cell_ids_from_lat_lng_arrays(lats[:2000], lngs[:2000])
        original = PolygonIndex.build(polygons, training_cell_ids=train_ids)
        path = tmp_path / "trained.npz"
        save_index(original, path)
        restored = load_index(path)
        a = original.join(lats, lngs, exact=True)
        b = restored.join(lats, lngs, exact=True)
        assert (a.counts == b.counts).all()
        assert a.num_pip_tests == b.num_pip_tests  # training state survived


class TestErrors:
    def test_version_check(self, polygons, tmp_path):
        from repro.core.flat import FlatSnapshot

        index = PolygonIndex.build(polygons)
        path = tmp_path / "index.npz"
        save_index(index, path)
        snapshot = FlatSnapshot.load(path, mmap_mode=None)
        snapshot.meta["format_version"] = 999
        bad = tmp_path / "bad.npz"
        snapshot.save(bad)
        with pytest.raises(ValueError):
            load_index(bad)

    def test_version_check_legacy(self, tmp_path):
        import json

        with np.load(FIXTURE_V1, allow_pickle=True) as archive:
            payload = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
        meta["format_version"] = 999
        payload["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **payload)
        with pytest.raises(ValueError):
            load_index(bad)


def _replay_delta(loaded, fresh):
    """Apply ``loaded``'s delta to ``fresh`` the way a file stores it:
    every delta insert in id order, then every tombstone."""
    polygons = loaded.polygons
    for pid in range(len(loaded.base.polygons), len(polygons)):
        assert fresh.insert(polygons[pid]) == pid
    for pid, polygon in enumerate(polygons):
        if polygon is not None and not loaded.is_live(pid):
            fresh.delete(pid)


FIXTURE_V1 = pathlib.Path(__file__).parent / "data" / "index_v1.npz"
FIXTURE_V2 = pathlib.Path(__file__).parent / "data" / "index_v2.npz"
# Written by the 1.8.0 ``save_index`` from a trained
# ``DynamicPolygonIndex.build(..., flat_snapshots=True)`` after one
# compaction (id 2 is a hole), with one pending insert and one pending
# delete; three polygons overlap, so the lookup table is not empty.
FIXTURE_V3 = pathlib.Path(__file__).parent / "data" / "index_v3.npy"


class TestBackwardCompatibility:
    """Checked-in FORMAT_VERSION 1, 2 and 3 files keep loading
    bit-identically under the current (v4) reader."""

    @pytest.mark.parametrize(
        "fixture, num_cells, digest",
        [
            (FIXTURE_V1, 1492, "61d5a77772bb667676e40fdbef07b6fb1a5f9daa9fa1160ac59dfc41fa36345f"),
            (FIXTURE_V2, 1555, "742f4b54b4b44ebb8ad045754205f66628002d7b205a5b357bccb702566c1d4e"),
            (FIXTURE_V3, 2476, "60c3989a5a1f885effd36121554cf7d3c8fd1982c4cd43c6a54810b35b19c82d"),
        ],
        ids=["v1", "v2", "v3"],
    )
    def test_fixture_coverings_load_to_the_recorded_entries(
        self, fixture, num_cells, digest
    ):
        """sha256 over the id-sorted ``(cell, polygon, interior)`` entry
        columns of the (base) covering, recorded with the 1.13.0 reader —
        which unpacked the buffers into a dict — so the attach-and-sort
        reader provably loads the same covering."""
        import hashlib

        loaded = load_index(fixture)
        covering = getattr(loaded, "base", loaded).super_covering
        covering.check_disjoint()
        assert covering.num_cells == num_cells
        assert np.all(covering.cell_ids[1:] > covering.cell_ids[:-1])
        hasher = hashlib.sha256()
        hasher.update(
            np.repeat(covering.cell_ids, np.diff(covering.ref_offsets)).tobytes()
        )
        hasher.update((covering.packed_refs >> 1).astype(np.int64).tobytes())
        hasher.update((covering.packed_refs & 1).astype(np.uint8).tobytes())
        assert hasher.hexdigest() == digest

    def test_v3_fixture_ids_are_in_build_order_and_resave_sorted(self, tmp_path):
        """Files written before 1.14.0 stored ``cell_ids`` in the order
        the precision / training build left them; attach sorts them, and
        whatever is packed or saved afterwards is ascending."""
        from repro.core.flat import FlatSnapshot

        stored = FlatSnapshot.load(FIXTURE_V3).buffers["cell_ids"]
        assert np.any(stored[1:] < stored[:-1])
        base = load_index(FIXTURE_V3).base
        path = tmp_path / "resaved.npy"
        save_index(base, path)
        resaved = FlatSnapshot.load(path).buffers["cell_ids"]
        assert np.array_equal(resaved, np.sort(stored))

    def test_v1_fixture_loads(self):
        index = load_index(FIXTURE_V1)
        assert isinstance(index, PolygonIndex)
        assert len(index.polygons) == 4
        assert index.precision_meters == 60.0
        assert index.store.fanout_bits == 4

    def test_v1_fixture_join_bit_identical_to_fresh_build(self):
        loaded = load_index(FIXTURE_V1)
        fresh = PolygonIndex.build(
            loaded.polygons,
            precision_meters=loaded.precision_meters,
            fanout_bits=loaded.store.fanout_bits,
        )
        generator = np.random.default_rng(17)
        lngs = generator.uniform(-74.01, -73.97, 6000)
        lats = generator.uniform(40.69, 40.73, 6000)
        for exact in (False, True):
            a = loaded.join(lats, lngs, exact=exact, materialize=True)
            b = fresh.join(lats, lngs, exact=exact, materialize=True)
            assert (a.counts == b.counts).all()
            assert set(zip(a.pair_points.tolist(), a.pair_polygons.tolist())) == set(
                zip(b.pair_points.tolist(), b.pair_polygons.tolist())
            )

    def test_v2_fixture_is_a_legacy_npz(self):
        # The fixture must actually exercise the legacy reader: a real
        # FORMAT_VERSION 2 npz archive, not a re-saved flat blob.
        import json

        archive = np.load(FIXTURE_V2, allow_pickle=True)
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        assert meta["format_version"] == 2
        assert meta["dynamic"] is True

    def test_v2_fixture_loads(self):
        from repro.core import DynamicPolygonIndex

        index = load_index(FIXTURE_V2)
        assert isinstance(index, DynamicPolygonIndex)
        assert index.delta_size == 2  # pending insert + delete survive
        assert index.precision_meters == 60.0

    def test_v2_fixture_join_bit_identical_to_fresh_build(self):
        from repro.core import DynamicPolygonIndex

        loaded = load_index(FIXTURE_V2)
        fresh = DynamicPolygonIndex.build(
            list(loaded.base.polygons),
            precision_meters=loaded.precision_meters,
            fanout_bits=4,
            compact_threshold=None,
        )
        _replay_delta(loaded, fresh)
        generator = np.random.default_rng(17)
        lngs = generator.uniform(-74.01, -73.97, 6000)
        lats = generator.uniform(40.69, 40.73, 6000)
        for exact in (False, True):
            a = loaded.join(lats, lngs, exact=exact, materialize=True)
            b = fresh.join(lats, lngs, exact=exact, materialize=True)
            assert (a.counts == b.counts).all()
            assert set(zip(a.pair_points.tolist(), a.pair_polygons.tolist())) == set(
                zip(b.pair_points.tolist(), b.pair_polygons.tolist())
            )

    def test_v3_fixture_is_a_flat_blob_with_the_legacy_meta_key(self):
        # The fixture must exercise what the loader has to ignore: a real
        # 1.8.0 file carrying the since-removed ``flat_snapshots`` option.
        from repro.core.flat import FlatSnapshot

        snapshot = FlatSnapshot.load(FIXTURE_V3)
        assert snapshot.meta["format_version"] == 3
        assert snapshot.meta["dynamic"] is True
        assert snapshot.meta["flat_snapshots"] is True
        assert len(snapshot.buffers["lut"]) > 0
        assert len(snapshot.buffers["training_cell_ids"]) == 600

    def test_v3_fixture_loads_without_a_store_build(self, monkeypatch):
        import repro.core.builder as builder_mod
        import repro.core.dynamic as dynamic_mod
        from repro.core import DynamicPolygonIndex

        real = builder_mod.build_store
        built = []

        def counting(covering, **kwargs):
            built.append(covering.num_cells)
            return real(covering, **kwargs)

        # The pending insert replays into a (tiny) delta store; the base
        # — thousands of cells — must come up as an attach.
        monkeypatch.setattr(builder_mod, "build_store", counting)
        monkeypatch.setattr(dynamic_mod, "build_store", counting)
        index = load_index(FIXTURE_V3)
        assert isinstance(index, DynamicPolygonIndex)
        assert index.delta_size == 2  # pending insert + delete survive
        assert index.precision_meters == 60.0
        assert index.base.store.fanout_bits == 4
        assert index.base.polygons[2] is None  # the compacted delete
        assert index.base.snapshot is not None
        assert len(index._training_cell_ids) == 600
        assert built and max(built) < index.base.num_cells // 4

    def test_saving_the_base_of_a_loaded_dynamic_index_drops_the_delta_log(
        self, tmp_path
    ):
        # The base holds the snapshot it was attached from — the dynamic
        # file's, with its ``dynamic`` meta and pending log.  Saving the
        # base alone must not re-save those: the log was never pending on
        # a plain PolygonIndex.
        from repro.core.flat import FLAT_EXTENSION_BUFFERS, FlatSnapshot

        base = load_index(FIXTURE_V3).base
        assert base.snapshot.meta["dynamic"] is True  # the stale keys
        path = tmp_path / "base.npy"
        save_index(base, path)
        saved = FlatSnapshot.load(path)
        assert "dynamic" not in saved.meta
        assert "compact_threshold" not in saved.meta
        assert not set(saved.buffers) & set(FLAT_EXTENSION_BUFFERS)
        reloaded = load_index(path)
        assert type(reloaded) is PolygonIndex
        generator = np.random.default_rng(17)
        lngs = generator.uniform(-74.01, -73.97, 6000)
        lats = generator.uniform(40.69, 40.73, 6000)
        for exact in (False, True):
            a = reloaded.join(lats, lngs, exact=exact, materialize=True)
            b = base.join(lats, lngs, exact=exact, materialize=True)
            assert (a.counts == b.counts).all()
            assert (a.pair_points == b.pair_points).all()
            assert (a.pair_polygons == b.pair_polygons).all()

    def test_v3_pool_re_encoded_v4_attached_and_built_agree(self, tmp_path):
        """The fixture's tagged pool is re-encoded once at attach, losing
        nothing; re-saved it is a v4 file whose signed pool attaches
        zero-copy and equals it; and a store built from the same
        covering resolves every lane to the same references, by the same
        descent."""
        import oracles
        from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
        from repro.core import AdaptiveCellTrie
        from repro.core.flat import FlatSnapshot

        stored = FlatSnapshot.load(FIXTURE_V3).buffers["act_pool"]
        assert stored.dtype == np.dtype("<u8")
        v3 = load_index(FIXTURE_V3).base
        assert np.array_equal(
            oracles.tagged_pool(v3.store.pool, v3.store.entries), stored
        )
        path = tmp_path / "v4.npy"
        save_index(v3, path)
        assert FlatSnapshot.load(path).meta["format_version"] == 4
        v4 = load_index(path)
        buffers = v4.snapshot.buffers
        assert v4.store.pool is buffers["act_pool"]
        assert v4.store.entries is buffers["act_entries"]
        assert np.array_equal(v4.store.pool, v3.store.pool)
        assert np.array_equal(v4.store.entries, v3.store.entries)
        built = AdaptiveCellTrie(v3.super_covering, v3.store.fanout_bits)

        generator = np.random.default_rng(23)
        lngs = generator.uniform(-74.02, -73.96, 6000)
        lats = generator.uniform(40.68, 40.74, 6000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        probes = [store.probe_instrumented(ids) for store in (v3.store, v4.store, built)]
        refs = [
            [store.lookup_table.decode_entry(int(e)) if e else () for e in entries]
            for store, (entries, _) in zip((v3.store, v4.store, built), probes)
        ]
        assert refs[0] == refs[1] == refs[2]
        assert any(refs[0])
        assert np.array_equal(probes[0][0], probes[1][0])
        for _, stats in probes[1:]:
            assert np.array_equal(stats.depths, probes[0][1].depths)
            assert stats.node_accesses == probes[0][1].node_accesses
        for exact in (False, True):
            a = v3.join(lats, lngs, exact=exact, materialize=True)
            b = v4.join(lats, lngs, exact=exact, materialize=True)
            assert (a.counts == b.counts).all()
            assert (a.pair_points == b.pair_points).all()
            assert (a.pair_polygons == b.pair_polygons).all()

    @pytest.mark.parametrize("fixture", ["v1", "v2", "v3", "v4"])
    def test_fixture_tries_probe_like_the_per_level_loop(self, fixture, tmp_path):
        """Every trie of the checked-in files, and of a v4 re-save of the
        v3 one, derives its two-level root table at attach (nothing of
        it is packed) and probes row for row like the per-level loop, on
        in-area batches and on batches its root tables only partly
        accept."""
        import oracles
        from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
        from repro.core import AdaptiveCellTrie
        from repro.core.flat import FlatSnapshot

        path = {"v1": FIXTURE_V1, "v2": FIXTURE_V2, "v3": FIXTURE_V3}.get(fixture)
        if path is None:
            path = tmp_path / "v4.npy"
            save_index(load_index(FIXTURE_V3), path)
            buffers = FlatSnapshot.load(path).buffers
            assert not any("two_level" in name for name in buffers)
        loaded = load_index(path)
        tries = [getattr(loaded, "base", loaded).store]
        delta = getattr(loaded.store, "_delta_store", None)
        if delta is not None:
            tries.append(delta)
        generator = np.random.default_rng(29)
        lats = np.concatenate(
            (generator.uniform(40.68, 40.74, 4000), generator.uniform(-80, 80, 1000))
        )
        lngs = np.concatenate(
            (generator.uniform(-74.02, -73.96, 4000), generator.uniform(-180, 180, 1000))
        )
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        for trie in tries:
            assert isinstance(trie, AdaptiveCellTrie)
            assert trie.describe()["two_level_root_bytes"] == (
                len(trie._face_trees) * trie.fanout**2 * 8
            )
            for batch in (ids[:4000], ids):
                rows = trie.probe_rows(batch)
                assert np.array_equal(rows, oracles.per_level_probe_rows(trie, batch))
            assert trie.probe_rows(ids[:4000]).any()

    def test_v3_fixture_join_bit_identical_to_fresh_build(self):
        from repro.core import DynamicPolygonIndex

        loaded = load_index(FIXTURE_V3)
        # Rebuild the same lifecycle with today's code: the base's live
        # polygons (a stand-in fills the compacted-away slot, deleted
        # again before compacting, so ids line up), then the delta.
        slots = list(loaded.base.polygons)
        filler = regular_polygon((-74.00, 40.72), 0.006, 21)
        fresh = DynamicPolygonIndex.build(
            [polygon if polygon is not None else filler for polygon in slots],
            precision_meters=loaded.precision_meters,
            fanout_bits=4,
            compact_threshold=None,
            training_cell_ids=loaded._training_cell_ids,
        )
        for pid, polygon in enumerate(slots):
            if polygon is None:
                fresh.delete(pid)
        fresh.compact()
        _replay_delta(loaded, fresh)
        assert fresh.live_polygon_ids == loaded.live_polygon_ids
        generator = np.random.default_rng(17)
        lngs = generator.uniform(-74.01, -73.97, 6000)
        lats = generator.uniform(40.69, 40.73, 6000)
        for exact in (False, True):
            a = loaded.join(lats, lngs, exact=exact, materialize=True)
            b = fresh.join(lats, lngs, exact=exact, materialize=True)
            assert (a.counts == b.counts).all()
            assert a.num_pip_tests == b.num_pip_tests  # same trained covering
            assert set(zip(a.pair_points.tolist(), a.pair_polygons.tolist())) == set(
                zip(b.pair_points.tolist(), b.pair_polygons.tolist())
            )

    def test_loaded_index_outranks_everything_built_so_far(self, polygons, tmp_path):
        # Versions are process-local: a load restamps (with the file's
        # version as a floor), so load-then-swap into a live router always
        # passes the newer-version check — even if the file was written
        # early in another process's life.
        index = PolygonIndex.build(polygons)
        path = tmp_path / "v2.npz"
        save_index(index, path)
        later = PolygonIndex.build(polygons[:1])  # counter advances meanwhile
        restored = load_index(path)
        assert restored.version > index.version
        assert restored.version > later.version

    def test_load_then_swap_into_live_service(self, polygons, points, tmp_path):
        from repro.serve import JoinService

        lngs, lats = points
        index = PolygonIndex.build(polygons)
        path = tmp_path / "swap.npz"
        save_index(index, path)
        with JoinService(PolygonIndex.build(polygons[:1])) as svc:
            svc.swap_layer("default", load_index(path))  # must not raise
            served = svc.join(lats, lngs)
        assert (served.counts == index.join(lats, lngs).counts).all()


class TestDynamicRoundTrip:
    def test_delta_log_replayed(self, polygons, points, tmp_path):
        from repro.core import DynamicPolygonIndex
        from repro.geo.polygon import regular_polygon

        lngs, lats = points
        dyn = DynamicPolygonIndex.build(
            polygons, precision_meters=60.0, compact_threshold=None
        )
        dyn.insert(regular_polygon((-73.985, 40.715), 0.005, 8))
        dyn.delete(0)
        path = tmp_path / "dynamic.npz"
        save_index(dyn, path)
        restored = load_index(path)
        assert isinstance(restored, DynamicPolygonIndex)
        assert restored.delta_size == 2
        assert restored.live_polygon_ids == dyn.live_polygon_ids
        for exact in (False, True):
            a = dyn.join(lats, lngs, exact=exact)
            b = restored.join(lats, lngs, exact=exact)
            assert (a.counts == b.counts).all()

    def test_compacted_dynamic_saves_with_holes(self, polygons, points, tmp_path):
        from repro.core import DynamicPolygonIndex

        lngs, lats = points
        dyn = DynamicPolygonIndex.build(polygons, compact_threshold=None)
        dyn.delete(1)
        dyn.compact()
        path = tmp_path / "holes.npz"
        save_index(dyn, path)
        restored = load_index(path)
        assert restored.polygons[1] is None
        assert restored.live_polygon_ids == dyn.live_polygon_ids
        a = dyn.join(lats, lngs, exact=True)
        b = restored.join(lats, lngs, exact=True)
        assert (a.counts == b.counts).all()

    def test_custom_coverer_options_survive_roundtrip(self, polygons, tmp_path):
        from repro.cells.coverer import CovererOptions
        from repro.core import DynamicPolygonIndex

        options = CovererOptions(max_cells=32, max_level=20)
        dyn = DynamicPolygonIndex.build(
            polygons[:2],
            covering_options=options,
            compact_threshold=None,
        )
        dyn.insert(polygons[2])
        path = tmp_path / "options.npz"
        save_index(dyn, path)
        restored = load_index(path)
        assert restored.base.covering_options == options
        # Replayed inserts were re-covered with the saved options, so the
        # approximate (covering-structure-sensitive) results also match.
        generator = np.random.default_rng(23)
        lngs = generator.uniform(-74.01, -73.97, 4000)
        lats = generator.uniform(40.69, 40.73, 4000)
        assert (
            dyn.join(lats, lngs).counts == restored.join(lats, lngs).counts
        ).all()

    def test_delta_saves_as_inserts_then_tombstones(self, polygons, points, tmp_path):
        from repro.core import DynamicPolygonIndex
        from repro.core.flat import FLAT_EXTENSION_BUFFERS, FlatSnapshot

        lngs, lats = points
        dyn = DynamicPolygonIndex.build(polygons[:2], compact_threshold=None)
        dyn.insert(polygons[2])
        dyn.delete(0)
        dyn.insert(regular_polygon((-73.985, 40.715), 0.005, 8))
        dyn.delete(2)  # a delta insert: its insert and its delete both stay
        path = tmp_path / "delta.npy"
        save_index(dyn, path)
        buffers = FlatSnapshot.load(path).buffers
        for name in ("delta_kinds", "delta_pids", "delta_ring_index"):
            assert buffers[name].dtype.str == FLAT_EXTENSION_BUFFERS[name]
        assert buffers["delta_kinds"].tolist() == [0, 0, 1, 1]
        assert buffers["delta_pids"].tolist() == [2, 3, 0, 2]
        restored = load_index(path)
        assert restored.live_polygon_ids == dyn.live_polygon_ids == [1, 3]
        assert restored.delta_size == dyn.delta_size == 4
        for exact in (False, True):
            a = dyn.join(lats, lngs, exact=exact, materialize=True)
            b = restored.join(lats, lngs, exact=exact, materialize=True)
            assert (a.counts == b.counts).all()
            assert (a.pair_points == b.pair_points).all()
            assert (a.pair_polygons == b.pair_polygons).all()

    def test_training_order_survives_roundtrip(self, tmp_path):
        """A retrain's split schedule is part of the saved configuration: a
        loaded copy compacts to the covering the original compacts to."""
        from repro.cells import cell_ids_from_lat_lng_arrays
        from repro.core import DynamicPolygonIndex
        from repro.datasets.workloads import polygon_dataset, taxi_points

        dyn = DynamicPolygonIndex.build(
            polygon_dataset("boroughs"), compact_threshold=None
        )
        lats, lngs = taxi_points(20_000, seed=5)
        dyn.retrain(
            cell_ids_from_lat_lng_arrays(lats, lngs),
            max_cells=dyn.num_cells + 300,
        )
        path = tmp_path / "trained.npy"
        save_index(dyn, path)
        loaded = load_index(path)
        want = dyn.compact().super_covering
        got = loaded.compact().super_covering
        for name in ("cell_ids", "ref_offsets", "packed_refs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
