"""Built-vs-attached parity for the zero-copy snapshot plane (repro.core.flat).

A built index and ``attach_index(pack_index(index))`` are the same
classes over different memory, so the contract is *bit-identical,
allocation-free, no rebuild*: joins through the attached index must
match the built one on every ``JoinResult`` field, for arbitrary point
streams, including under a dynamic overlay, after a compaction and after
a served swap; the attached store and table must be views into the
snapshot's buffers; and the probe hot loop must not allocate per-entry
Python objects.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveCellTrie,
    DynamicPolygonIndex,
    FlatSnapshot,
    LookupTable,
    PolygonIndex,
    attach_index,
    pack_index,
)
from repro.core.refs import PolygonRef
from repro.geo.polygon import regular_polygon
from repro.serve import JoinService

#: Every JoinResult field two equivalent joins must agree on exactly.
STAT_FIELDS = (
    "num_points",
    "num_pairs",
    "num_true_hit_pairs",
    "num_candidate_pairs",
    "num_pip_tests",
    "solely_true_hits",
)


def _grid_polygons(n=3, step=0.02, radius=0.011):
    return [
        regular_polygon((-74.0 + gx * step, 40.70 + gy * step), radius, 16)
        for gx in range(n)
        for gy in range(n)
    ]


def _points(seed, count):
    rng = np.random.default_rng(seed)
    lngs = rng.uniform(-74.05, -73.91, count)
    lats = rng.uniform(40.65, 40.79, count)
    return lats, lngs


def assert_identical(a, b):
    assert np.array_equal(a.counts, b.counts)
    for field in STAT_FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    if a.pair_points is not None:
        assert set(
            zip(a.pair_points.tolist(), a.pair_polygons.tolist())
        ) == set(zip(b.pair_points.tolist(), b.pair_polygons.tolist()))


@pytest.fixture(scope="module")
def index():
    return PolygonIndex.build(_grid_polygons(), precision_meters=30.0)


@pytest.fixture(scope="module")
def attached(index):
    return attach_index(pack_index(index), version=index.version)


class TestSnapshotContainer:
    def test_roundtrip_through_bytes(self, index):
        snapshot = pack_index(index)
        blob = snapshot.to_bytes()
        again = FlatSnapshot.from_buffer(blob)
        assert set(again.buffers) == set(snapshot.buffers)
        for name, array in snapshot.buffers.items():
            assert np.array_equal(again.buffers[name], array), name
        assert again.meta["num_polygons"] == len(index.polygons)

    def test_save_load_mmap(self, index, tmp_path):
        snapshot = pack_index(index)
        path = tmp_path / "snap.flat"
        snapshot.save(path)
        attached = FlatSnapshot.load(path, mmap_mode="r")
        for name, array in snapshot.buffers.items():
            assert np.array_equal(attached.buffers[name], array), name

    def test_shared_memory_attach_tolerates_page_rounding(self, index):
        snapshot = pack_index(index)
        segment = snapshot.to_shared_memory()
        try:
            # The segment is page-rounded, so the blob has trailing bytes
            # the reader must ignore.
            assert segment.size >= snapshot.nbytes
            attached = FlatSnapshot.from_buffer(segment.buf, owner=segment)
            for name, array in snapshot.buffers.items():
                assert np.array_equal(attached.buffers[name], array), name
            del attached
        finally:
            segment.close()
            segment.unlink()

    # Recorded at 1.23.0, when pack_index still composed a geometry and a
    # coverage plane: the order a v3 file and a shared-memory segment carry.
    PACKED_BUFFERS = [
        "poly_ring_index", "ring_vertex_index", "ring_lngs", "ring_lats",
        "ref_row_offset", "ref_num_buckets", "ref_lat_origin",
        "ref_inv_bucket_height", "ref_mbr_lng_lo", "ref_mbr_lng_hi",
        "ref_mbr_lat_lo", "ref_mbr_lat_hi", "ref_edge_start", "ref_y0",
        "ref_y1", "ref_x0", "ref_dx", "ref_inv_dy",
        "act_pool", "act_faces", "act_face_values", "lut",
        "cell_ids", "ref_offsets", "packed_refs",
    ]
    PACKED_META = [
        "flat_format", "num_polygons", "precision_meters", "version",
        "fanout_bits", "max_value_depth", "num_nodes", "num_keys",
        "num_input_cells", "build_seconds", "num_cells", "max_cell_level",
    ]

    def test_packed_layout_is_pinned(self, index):
        snapshot = pack_index(index)
        assert list(snapshot.buffers) == self.PACKED_BUFFERS
        assert list(snapshot.meta) == self.PACKED_META
        again = FlatSnapshot.from_buffer(snapshot.to_bytes())
        assert list(again.buffers) == self.PACKED_BUFFERS
        assert list(again.meta) == self.PACKED_META

    def test_nbytes_sums_buffers(self, index):
        snapshot = pack_index(index)
        assert snapshot.nbytes == sum(
            a.nbytes for a in snapshot.buffers.values()
        )

    def test_attach_preserves_or_stamps_version(self, index):
        snapshot = pack_index(index)
        pinned = attach_index(snapshot, version=index.version)
        assert pinned.version == index.version
        fresh = attach_index(snapshot)
        assert fresh.version > index.version

    def test_pack_index_returns_held_snapshot(self, index, attached):
        # One index class either way; the attached one keeps the snapshot
        # it serves from, so packing it again copies nothing.
        assert type(attached) is type(index)
        assert type(attached.store) is AdaptiveCellTrie
        assert type(attached.lookup_table) is LookupTable
        assert index.snapshot is None
        assert pack_index(attached) is attached.snapshot

    def test_attached_store_and_table_are_views(self, attached):
        buffers = attached.snapshot.buffers
        assert np.shares_memory(attached.store.pool, buffers["act_pool"])
        assert np.shares_memory(attached.lookup_table.array, buffers["lut"])
        blob = attached.snapshot.to_bytes()
        mapped = attach_index(blob)
        assert np.shares_memory(mapped.store.pool, blob)
        assert np.shares_memory(mapped.lookup_table.array, blob)
        assert np.shares_memory(mapped.polygons[0].outer.lngs, blob)
        # The covering IS the plane's three buffers: wrapped, not unpacked.
        covering = mapped.super_covering
        assert np.shares_memory(covering.cell_ids, blob)
        assert np.shares_memory(covering.ref_offsets, blob)
        assert np.shares_memory(covering.packed_refs, blob)

    def test_pack_of_an_attached_blob_returns_the_blob_s_buffers(self, index):
        blob = pack_index(index).to_bytes()
        source = FlatSnapshot.from_buffer(blob)
        repacked = pack_index(attach_index(blob))
        assert list(repacked.buffers) == list(source.buffers)
        for name, array in source.buffers.items():
            assert np.array_equal(repacked.buffers[name], array), name
        cell_ids = source.buffers["cell_ids"]
        assert np.all(cell_ids[1:] > cell_ids[:-1])  # ascending as written

    @pytest.mark.parametrize("cut", ["10B", "header", "payload", "tail"])
    def test_truncated_blob_rejected_by_name(self, index, cut):
        blob = pack_index(index).to_bytes()
        header_len = int(blob[8:16].view("<u8")[0])
        keep = {
            "10B": 10,
            "header": 16 + header_len // 2,
            "payload": len(blob) // 2,
            "tail": len(blob) - 8,
        }[cut]
        with pytest.raises(ValueError, match="truncated/corrupt flat snapshot"):
            FlatSnapshot.from_buffer(blob[:keep].copy())

    def test_truncation_names_the_buffer(self, index):
        blob = pack_index(index).to_bytes()
        with pytest.raises(ValueError, match="buffer 'packed_refs'"):
            FlatSnapshot.from_buffer(blob[: len(blob) - 8].copy())

    def test_out_of_range_record_rejected(self, index):
        import json
        import struct

        snapshot = pack_index(index)
        blob = snapshot.to_bytes()
        header_len = int(blob[8:16].view("<u8")[0])
        header = json.loads(blob[16 : 16 + header_len].tobytes())
        for field, bad, match in (
            ("offset", len(blob), "buffer 'lut' spans"),
            ("nbytes", 12, "buffer 'lut' declares 12 bytes"),
        ):
            records = [dict(r) for r in header["buffers"]]
            lut = next(r for r in records if r["name"] == "lut")
            lut[field] = bad
            # Re-encode compactly and pad back to the original header
            # length, so every other record still points at its own bytes.
            text = json.dumps(
                {"meta": header["meta"], "buffers": records},
                separators=(",", ":"),
            )
            assert len(text) <= header_len
            corrupt = blob.copy()
            corrupt[16 : 16 + header_len] = np.frombuffer(
                text.ljust(header_len).encode("utf-8"), dtype=np.uint8
            )
            assert struct.unpack("<Q", corrupt[8:16].tobytes())[0] == header_len
            with pytest.raises(ValueError, match=match):
                FlatSnapshot.from_buffer(corrupt)


class TestFlatParity:
    """Joins through an attached index are bit-identical to the built one."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        num_points=st.integers(min_value=0, max_value=400),
        exact=st.booleans(),
    )
    def test_join_bit_identical(self, index, attached, seed, num_points, exact):
        lats, lngs = _points(seed, num_points)
        direct = index.join(lats, lngs, exact=exact, materialize=True)
        served = attached.join(lats, lngs, exact=exact, materialize=True)
        assert_identical(served, direct)

    def test_probe_matches_store(self, index, attached):
        lats, lngs = _points(5, 3000)
        cell_ids = index.cell_ids_for(lats, lngs)
        assert np.array_equal(
            attached.store.probe(cell_ids), index.store.probe(cell_ids)
        )

    def test_probe_instrumented_matches_store(self, index, attached):
        # One kernel: the attached store reports the same traversal.
        lats, lngs = _points(8, 3000)
        cell_ids = index.cell_ids_for(lats, lngs)
        entries, stats = attached.store.probe_instrumented(cell_ids)
        built_entries, built_stats = index.store.probe_instrumented(cell_ids)
        assert np.array_equal(entries, built_entries)
        assert np.array_equal(stats.depths, built_stats.depths)
        assert stats.node_accesses == built_stats.node_accesses > 0
        assert stats.prefix_rejections == built_stats.prefix_rejections

    def test_lookup_table_decodes_identically(self, index, attached):
        lats, lngs = _points(6, 2000)
        entries = index.store.probe(index.cell_ids_for(lats, lngs))
        for entry in np.unique(entries[entries != 0]):
            assert attached.lookup_table.decode_entry(
                int(entry)
            ) == index.lookup_table.decode_entry(int(entry))

    def test_attached_lookup_table_is_read_only(self, attached):
        refs = tuple(PolygonRef(pid, False) for pid in range(3))
        with pytest.raises(TypeError, match="read-only"):
            attached.lookup_table.encode(refs)

    def test_containing_polygons(self, index, attached):
        lats, lngs = _points(7, 50)
        for lat, lng in zip(lats, lngs):
            assert attached.containing_polygons(lat, lng) == (
                index.containing_polygons(lat, lng)
            )

    def test_describe_agrees_apart_from_build_seconds(self, index, attached):
        built, served = index.describe(), attached.describe()
        assert built.pop("build_seconds") > 0
        assert served.pop("build_seconds") == 0.0  # nothing was built
        assert served == built
        assert attached.max_cell_level() == index.max_cell_level()


class TestAttachedMutation:
    """Mutation paths on an attached index work on the attached covering,
    serve correct joins, and never leave a stale snapshot behind."""

    def test_add_polygon_drops_the_snapshot(self, index):
        extra = regular_polygon((-73.95, 40.76), 0.012, 11)
        mutated = attach_index(pack_index(index))
        stale = mutated.snapshot
        assert mutated.add_polygon(extra) == len(index.polygons)
        assert mutated.snapshot is None
        rebuilt = PolygonIndex.build(
            _grid_polygons(), precision_meters=30.0
        )
        rebuilt.add_polygon(extra)
        lats, lngs = _points(17, 4000)
        for exact in (False, True):
            assert_identical(
                mutated.join(lats, lngs, exact=exact, materialize=True),
                rebuilt.join(lats, lngs, exact=exact, materialize=True),
            )
        # Packing afterwards reflects the rebuilt store, not the blob
        # the index was first attached from.
        repacked = pack_index(mutated)
        assert repacked is not stale
        assert repacked.meta["num_polygons"] == len(index.polygons) + 1
        assert np.array_equal(repacked.buffers["act_pool"], mutated.store.pool)
        assert_identical(
            attach_index(repacked).join(lats, lngs, exact=True),
            mutated.join(lats, lngs, exact=True),
        )

    def test_retrained_from_an_attached_index(self, index, attached):
        lats, lngs = _points(19, 4000)
        train_ids = index.cell_ids_for(lats[:1500], lngs[:1500])
        retrained = attached.retrained(train_ids)
        assert retrained.snapshot is None
        assert retrained.version > attached.version
        assert attached.snapshot is not None  # the live index is untouched
        reference = index.retrained(train_ids)
        for exact in (False, True):
            assert_identical(
                retrained.join(lats, lngs, exact=exact, materialize=True),
                reference.join(lats, lngs, exact=exact, materialize=True),
            )
        assert pack_index(retrained).meta["num_cells"] == retrained.num_cells


class TestDynamicCompactionParity:
    """A dynamic index over an attached base stays bit-identical to one
    over the built base through its whole lifecycle: overlay serving on
    the attached base, compaction, and post-compaction serving."""

    @staticmethod
    def _pair(compact):
        extra = [
            regular_polygon((-73.95, 40.76), 0.012, 11),
            regular_polygon((-74.03, 40.67), 0.012, 13),
        ]
        base = PolygonIndex.build(_grid_polygons(), precision_meters=30.0)
        pair = []
        for start in (base, attach_index(pack_index(base))):
            dyn = DynamicPolygonIndex(
                start, compact_threshold=2 if compact else None
            )
            dyn.insert(extra[0])
            dyn.insert(extra[1])  # with a threshold: synchronous compaction
            dyn.delete(0)  # pending overlay op on top of the current base
            assert dyn.compactions == (1 if compact else 0)
            pair.append(dyn)
        return pair

    @pytest.fixture(scope="class")
    def overlay_pair(self):
        return self._pair(compact=False)

    @pytest.fixture(scope="class")
    def dynamic_pair(self):
        return self._pair(compact=True)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        num_points=st.integers(min_value=0, max_value=300),
        exact=st.booleans(),
    )
    def test_join_bit_identical_under_overlay(
        self, overlay_pair, seed, num_points, exact
    ):
        plain, over_attached = overlay_pair
        assert over_attached.base.snapshot is not None
        lats, lngs = _points(seed, num_points)
        assert_identical(
            over_attached.join(lats, lngs, exact=exact, materialize=True),
            plain.join(lats, lngs, exact=exact, materialize=True),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        num_points=st.integers(min_value=0, max_value=300),
        exact=st.booleans(),
    )
    def test_join_bit_identical_after_compaction(
        self, dynamic_pair, seed, num_points, exact
    ):
        plain, over_attached = dynamic_pair
        lats, lngs = _points(seed, num_points)
        assert_identical(
            over_attached.join(lats, lngs, exact=exact, materialize=True),
            plain.join(lats, lngs, exact=exact, materialize=True),
        )

    def test_flat_snapshots_rejects_custom_store(self):
        # An index over a custom store cannot be built since 1.16.0 (see
        # test_builder.py::test_non_act_store_rejected_at_the_door) — and
        # the option that used to opt a dynamic index into snapshots is
        # gone.
        custom = PolygonIndex.build(_grid_polygons(2))
        with pytest.raises(TypeError, match="flat_snapshots"):
            DynamicPolygonIndex.build(_grid_polygons(2), flat_snapshots=True)
        with pytest.raises(TypeError, match="flat_snapshots"):
            DynamicPolygonIndex(custom, flat_snapshots=True)


class TestServedSwapParity:
    """A service serves attached layers as registered — and swaps to
    attached snapshots stay bit-identical."""

    @pytest.fixture(scope="class")
    def swapped_service(self):
        first = PolygonIndex.build(_grid_polygons(2), precision_meters=60.0)
        second = PolygonIndex.build(_grid_polygons(), precision_meters=30.0)
        served = attach_index(pack_index(second), version=second.version)
        service = JoinService(attach_index(pack_index(first), version=first.version))
        service.swap_layer("default", served)
        yield service, second, served
        service.close()

    def test_router_holds_flat_index(self, swapped_service):
        service, second, served = swapped_service
        _, live = service._router.resolve(None)
        assert live is served  # registered as is: no conversion step
        assert live.version == second.version
        assert live.probe_view().store is served.store

    def test_flat_views_option_is_gone(self):
        index = PolygonIndex.build(_grid_polygons(2))
        with pytest.raises(TypeError, match="flat_views"):
            JoinService(index, flat_views=True)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        num_points=st.integers(min_value=0, max_value=300),
        exact=st.booleans(),
    )
    def test_served_join_bit_identical(
        self, swapped_service, seed, num_points, exact
    ):
        service, second, _ = swapped_service
        lats, lngs = _points(seed, num_points)
        assert_identical(
            service.join(lats, lngs, exact=exact, materialize=True),
            second.join(lats, lngs, exact=exact, materialize=True),
        )

    def test_dynamic_layer_passes_through(self):
        dyn = DynamicPolygonIndex.build(
            _grid_polygons(2), compact_threshold=None
        )
        with JoinService(dyn) as service:
            _, live = service._router.resolve(None)
            assert live is dyn


def _allocation_count(fn):
    """Python allocations attributed to running ``fn`` once."""
    tracemalloc.start()
    try:
        fn()  # warm: caches, lazy imports, bytecode
        before = tracemalloc.take_snapshot()
        fn()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sum(
        max(diff.count_diff, 0)
        for diff in after.compare_to(before, "lineno")
    )


class TestAllocationFreeProbe:
    """The probe hot loop allocates no per-entry Python objects.

    The allocation count must be a small constant (numpy temporaries per
    trie level), independent of the batch size — for the attached store
    and the built one alike, since they run the same kernel.
    """

    def test_probe_allocations_do_not_scale_with_batch(self, index, attached):
        lats, lngs = _points(11, 50_000)
        cell_ids = index.cell_ids_for(lats, lngs)
        small, big = cell_ids[:2_000], cell_ids
        for probe in (attached.store.probe, index.store.probe):
            count_small = _allocation_count(partial(probe, small))
            count_big = _allocation_count(partial(probe, big))
            # 25x the entries, same handful of numpy temporaries.
            assert count_big < 500, count_big
            assert count_big <= count_small + 100, (count_small, count_big)


class TestNoStoreBuildOnLoad:
    def test_v3_load_is_an_attach(self, index, tmp_path, monkeypatch):
        """``load_index`` on a v3 file must not run any store build."""
        import repro.core.builder as builder_mod
        import repro.core.serialize as serialize_mod
        from repro.core.serialize import load_index, save_index

        path = tmp_path / "attach.flat"
        save_index(index, path)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("store build ran during a v3 load")

        monkeypatch.setattr(builder_mod, "build_store", forbidden)
        monkeypatch.setattr(serialize_mod, "build_store", forbidden)
        loaded = load_index(path)
        assert loaded.snapshot is not None
        lats, lngs = _points(13, 2000)
        assert_identical(
            loaded.join(lats, lngs, exact=True, materialize=True),
            index.join(lats, lngs, exact=True, materialize=True),
        )
