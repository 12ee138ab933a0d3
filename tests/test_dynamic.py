"""Tests for the dynamic index lifecycle (repro.core.dynamic).

The load-bearing guarantee: after ANY sequence of online inserts and
deletes, join results are identical to a fresh ``PolygonIndex.build`` over
the current live polygon set (modulo the stable-id ↔ dense-id mapping) —
before and after compaction.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicPolygonIndex, PolygonIndex
from repro.core.dynamic import OverlayCellStore
from repro.geo import refine as refine_module
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon

#: Candidate polygons inserts draw from (deterministic, overlapping mix).
POOL = [
    regular_polygon((-74.00, 40.70), 0.006, 14),
    regular_polygon((-73.98, 40.70), 0.006, 9),
    regular_polygon((-74.00, 40.72), 0.006, 21),
    regular_polygon((-73.985, 40.715), 0.009, 6),
    regular_polygon((-73.995, 40.705), 0.004, 8),
    regular_polygon((-73.99, 40.71), 0.012, 10),
]


def _probe_points(n=2500, seed=5):
    rng = np.random.default_rng(seed)
    lngs = rng.uniform(-74.015, -73.965, n)
    lats = rng.uniform(40.69, 40.735, n)
    return lats, lngs


LATS, LNGS = _probe_points()


def _assert_matches_fresh_build(dyn: DynamicPolygonIndex, *, exact: bool, **build_kwargs):
    """Dynamic join results == fresh build over the live set (id-mapped)."""
    live = dyn.live_polygon_ids
    fresh = PolygonIndex.build([dyn.polygons[pid] for pid in live], **build_kwargs)
    got = dyn.join(LATS, LNGS, exact=exact, materialize=True)
    want = fresh.join(LATS, LNGS, exact=exact, materialize=True)
    # Counts: live slots match under the id mapping, all other slots are 0.
    np.testing.assert_array_equal(got.counts[live], want.counts)
    dead = np.setdiff1d(np.arange(len(got.counts)), live)
    assert not got.counts[dead].any()
    # Pairs: identical after mapping fresh dense ids back to stable ids.
    mapping = np.asarray(live, dtype=np.int64)
    got_pairs = set(zip(got.pair_points.tolist(), got.pair_polygons.tolist()))
    want_pairs = set(
        zip(want.pair_points.tolist(), mapping[want.pair_polygons].tolist())
    )
    assert got_pairs == want_pairs


def _apply_ops(dyn: DynamicPolygonIndex, ops):
    """Interpret (kind, value) ops against the pool / current live set."""
    for kind, value in ops:
        if kind == "insert":
            dyn.insert(POOL[value % len(POOL)])
        else:
            live = dyn.live_polygon_ids
            if len(live) > 1:
                dyn.delete(live[value % len(live)])


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 63)),
    min_size=1,
    max_size=6,
)


class TestEquivalenceProperty:
    """The acceptance criterion, hypothesis-driven."""

    @settings(max_examples=15, deadline=None)
    @given(ops=ops_strategy)
    def test_exact_and_approximate_joins_match_fresh_build(self, ops):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        _apply_ops(dyn, ops)
        # No precision refinement → even the approximate covering structure
        # is point-equivalent between overlay and fresh build.
        _assert_matches_fresh_build(dyn, exact=False)
        _assert_matches_fresh_build(dyn, exact=True)
        dyn.compact()
        _assert_matches_fresh_build(dyn, exact=False)
        _assert_matches_fresh_build(dyn, exact=True)

    @settings(max_examples=8, deadline=None)
    @given(ops=ops_strategy)
    def test_exact_join_matches_with_precision_bound(self, ops):
        # With refinement the covering shapes may differ (so approximate
        # false positives can), but exact join results never do.
        dyn = DynamicPolygonIndex.build(
            POOL[:2], precision_meters=60.0, compact_threshold=None
        )
        _apply_ops(dyn, ops)
        _assert_matches_fresh_build(dyn, exact=True, precision_meters=60.0)
        dyn.compact()
        _assert_matches_fresh_build(dyn, exact=True, precision_meters=60.0)


class TestOverlayRefinement:
    """Overlay views refine through the ordinary engine at any batch size
    (they used to stay on a separate small-batch path below 4096 pairs)."""

    @settings(max_examples=10, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "compact"]), st.integers(0, 63)
            ),
            max_size=6,
        )
    )
    def test_small_and_large_exact_joins_match_brute_force(self, ops):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        for kind, value in ops:
            if kind == "compact":
                dyn.compact()
            else:
                _apply_ops(dyn, [(kind, value)])
        dyn.insert(POOL[5])  # whatever came before, this is an overlay view
        view = dyn.probe_view()
        assert isinstance(view.store, OverlayCellStore)
        live = set(dyn.live_polygon_ids)
        pip_tests = []
        for n in (64, 20_000):
            # Half uniform, half hugging the inserted polygon's boundary
            # (candidate hits: the refinement, not the probe, decides them).
            lats, lngs = _probe_points(n, seed=n)
            rng = np.random.default_rng(n)
            angles = rng.uniform(0.0, 2.0 * np.pi, n // 2)
            radii = 0.012 * rng.uniform(0.9, 1.1, n // 2)
            lngs[: n // 2] = -73.99 + radii * np.cos(angles)
            lats[: n // 2] = 40.71 + radii * np.sin(angles)
            got = dyn.join(lats, lngs, exact=True)
            want = [
                int(contains_points(polygon, lngs, lats).sum()) if pid in live else 0
                for pid, polygon in enumerate(view.polygons)
            ]
            assert got.counts.tolist() == want
            pip_tests.append(got.num_pip_tests)
        assert pip_tests[0] < 4096 <= pip_tests[1]

    def test_first_use_race_builds_one_table(self, monkeypatch):
        built = []
        original = refine_module._FlatBucketTable.__init__

        def counting(self, polygons):
            built.append(len(polygons))
            original(self, polygons)

        monkeypatch.setattr(refine_module._FlatBucketTable, "__init__", counting)
        dyn = DynamicPolygonIndex.build(POOL[:3], compact_threshold=None)
        dyn.insert(POOL[5])  # a fresh overlay view: engine without a table
        expected = dyn.join(LATS, LNGS, exact=True).counts
        dyn.delete(0)
        dyn.insert(POOL[0])  # fresh again (a new view per write)
        built.clear()
        barrier = threading.Barrier(4)
        results = []

        def reader():
            barrier.wait(timeout=30)
            results.append(dyn.join(LATS, LNGS, exact=True).counts)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert built == [len(dyn.polygons)]
        assert len(results) == 4
        for counts in results:
            assert counts[1:4].tolist() == expected[1:4].tolist()
            assert counts[0] == 0 and counts[4] == expected[0]


class TestLifecycleBasics:
    def test_insert_assigns_sequential_stable_ids(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        assert dyn.insert(POOL[2]) == 2
        assert dyn.insert(POOL[3]) == 3
        dyn.delete(2)
        assert dyn.insert(POOL[4]) == 4  # deleted ids are never reused
        assert dyn.live_polygon_ids == [0, 1, 3, 4]

    def test_ids_stay_stable_across_compaction(self):
        dyn = DynamicPolygonIndex.build(POOL[:3], compact_threshold=None)
        dyn.delete(1)
        dyn.compact()
        assert dyn.live_polygon_ids == [0, 2]
        assert dyn.polygons[1] is None  # a hole, not a renumbering
        assert dyn.insert(POOL[4]) == 3

    def test_version_strictly_increases(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        versions = [dyn.version]
        dyn.insert(POOL[2])
        versions.append(dyn.version)
        dyn.delete(0)
        versions.append(dyn.version)
        dyn.compact()
        versions.append(dyn.version)
        assert versions == sorted(set(versions))

    def test_delete_unknown_or_dead_id_raises(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        with pytest.raises(KeyError):
            dyn.delete(7)
        dyn.delete(1)
        with pytest.raises(KeyError):
            dyn.delete(1)

    def test_delta_log_and_counters(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        assert dyn.delta_size == 0
        dyn.insert(POOL[2])
        dyn.delete(0)
        assert dyn.delta_size == 2
        kinds = [op.kind for op in dyn.pending_ops]
        assert kinds == ["insert", "delete"]
        dyn.compact()
        assert dyn.delta_size == 0
        assert dyn.compactions == 1

    def test_fast_path_without_delta_uses_base_store(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        assert dyn.store is dyn.base.store
        dyn.insert(POOL[2])
        assert isinstance(dyn.store, OverlayCellStore)
        dyn.compact()
        assert dyn.store is dyn.base.store

    def test_tombstoned_polygon_never_appears_in_pairs(self):
        dyn = DynamicPolygonIndex.build(POOL[:3], compact_threshold=None)
        dyn.delete(1)
        result = dyn.join(LATS, LNGS, exact=True, materialize=True)
        assert 1 not in set(result.pair_polygons.tolist())
        assert result.counts[1] == 0

    def test_parallel_join_matches_single_threaded(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        dyn.delete(0)
        single = dyn.join(LATS, LNGS, exact=True)
        parallel = dyn.join(LATS, LNGS, exact=True, num_threads=2)
        np.testing.assert_array_equal(single.counts, parallel.counts)

    def test_containing_polygons(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        pid = dyn.insert(regular_polygon((-73.90, 40.80), 0.006, 12))
        assert dyn.containing_polygons(40.80, -73.90) == [pid]
        dyn.delete(pid)
        assert dyn.containing_polygons(40.80, -73.90) == []

    def test_overlay_store_empty_probe(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        entries = dyn.store.probe(np.zeros(0, dtype=np.uint64))
        assert entries.size == 0

    def test_describe_reports_lifecycle_state(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        dyn.delete(0)
        info = dyn.describe()
        assert info["delta_size"] == 2
        assert info["delta_inserts"] == 1
        assert info["tombstones"] == 1
        assert info["num_polygons"] == 2


class TestMaxCellLevel:
    """Regression: every write used to recompute the deepest base level
    with a Python histogram over all base cells (4.3 ms of a 6.1 ms delete
    on a 5,122-cell base).  It is now one memoized array reduction per
    covering; this pins the value, not the time."""

    @staticmethod
    def _deepest(*coverings) -> int:
        return max(
            (max(c.level_histogram()) for c in coverings if c.num_cells), default=0
        )

    def test_equals_the_level_histogram_across_the_lifecycle(self):
        from repro.core import attach_index, pack_index

        built = PolygonIndex.build(POOL[:3], precision_meters=30.0)
        assert built.max_cell_level() == self._deepest(built.super_covering)
        attached = attach_index(pack_index(built).to_bytes())
        assert attached.max_cell_level() == built.max_cell_level()
        assert attached.snapshot.meta["max_cell_level"] == built.max_cell_level()
        dyn = DynamicPolygonIndex(built, compact_threshold=None)
        assert dyn.max_cell_level() == built.max_cell_level()
        # A small polygon's cells sit deeper than anything in the base.
        dyn.insert(regular_polygon((-73.97, 40.73), 0.0004, 12))
        assert dyn.max_cell_level() == self._deepest(
            dyn.base.super_covering, dyn._delta_covering
        )
        assert dyn.max_cell_level() > built.max_cell_level()
        dyn.delete(0)
        assert dyn.max_cell_level() == self._deepest(
            dyn.base.super_covering, dyn._delta_covering
        )
        dyn.compact()
        assert dyn.max_cell_level() == self._deepest(dyn.base.super_covering)
        assert dyn.max_cell_level() == dyn.base.max_cell_level()

    def test_computed_once_per_covering(self, monkeypatch):
        import repro.core.super_covering as module

        calls = []
        real = module.levels_from_cell_ids

        def counting(ids):
            calls.append(len(ids))
            return real(ids)

        dyn = DynamicPolygonIndex.build(POOL[:3], compact_threshold=None)
        monkeypatch.setattr(module, "levels_from_cell_ids", counting)
        delta_cells = []
        for polygon in POOL[3:]:
            dyn.insert(polygon)
            delta_cells.append(dyn._delta_covering.num_cells)
        dyn.delete(1)
        dyn.delete(2)
        # The base's level was settled when the index was built; writes
        # reduce only the (new) delta covering, once per insert.
        assert calls == delta_cells
        before = list(calls)
        dyn.base.max_cell_level()
        dyn.base.super_covering.max_level()
        assert calls == before


class TestCompaction:
    def test_threshold_triggers_inline_compaction(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=2)
        dyn.insert(POOL[2])
        assert dyn.compactions == 0
        dyn.insert(POOL[3])  # second pending op reaches the threshold
        assert dyn.compactions == 1
        assert dyn.delta_size == 0
        assert dyn.live_polygon_ids == [0, 1, 2, 3]

    def test_manual_compaction_returns_fresh_snapshot(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        before = dyn.version
        snapshot = dyn.compact()
        assert snapshot is dyn.base
        assert snapshot.version > before
        assert dyn.version > snapshot.version  # install bumps once more

    def test_compaction_covers_only_polygons_never_covered(self, covered):
        """An insert's covering is the one its compaction reuses: after 8
        inserts and 8 deletes a compaction covers nothing, and its result
        is a fresh build over the live set on brand-new polygon objects,
        cell for cell."""

        def venues(count, first=0):
            return [
                regular_polygon((-74.0 + 0.004 * k, 40.70 + 0.003 * (k % 5)), 0.004, 7 + k)
                for k in range(first, first + count)
            ]

        initial = venues(8)
        dyn = DynamicPolygonIndex(PolygonIndex.build(initial), compact_threshold=None)
        for polygon in venues(8, first=8):
            dyn.insert(polygon)
        for pid in (0, 9, 3, 12, 5, 15, 6, 10):
            dyn.delete(pid)
        assert sum(map(len, covered)) == 16  # each polygon once, when it arrived
        covered.clear()
        compacted = dyn.compact()
        assert covered == []
        assert compacted.timings.covered == 0
        # A polygon that never went through this process's coverer (a
        # restored base, say) is the only one a compaction has to cover.
        stranger = venues(1, first=16)[0]
        restored = DynamicPolygonIndex(
            PolygonIndex(
                [*compacted.polygons, stranger],
                compacted.super_covering,
                compacted.store,
                compacted.lookup_table,
                compacted.timings,
                None,
                None,
            ),
            compact_threshold=None,
        )
        assert restored.compact().timings.covered == 1
        assert covered == [[stranger]]
        live = dyn.live_polygon_ids
        twins = venues(16)
        fresh = PolygonIndex.build([twins[pid] for pid in live])
        assert np.array_equal(compacted.super_covering.cell_ids, fresh.super_covering.cell_ids)
        assert np.array_equal(
            compacted.super_covering.ref_offsets, fresh.super_covering.ref_offsets
        )
        stable = np.asarray(live, dtype=np.uint32)
        packed = fresh.super_covering.packed_refs
        assert np.array_equal(
            compacted.super_covering.packed_refs, (stable[packed >> 1] << 1) | (packed & 1)
        )

    def test_background_compaction_with_concurrent_reads(self):
        dyn = DynamicPolygonIndex.build(
            POOL[:2], compact_threshold=3, background=True
        )
        errors: list[Exception] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    result = dyn.join(LATS[:500], LNGS[:500], exact=True)
                    assert result.num_points == 500
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for polygon in POOL[2:]:
                dyn.insert(polygon)
            dyn.delete(0)
            dyn.wait_for_compaction()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        assert dyn.compactions >= 1
        _assert_matches_fresh_build(dyn, exact=True)

    def test_ops_during_compaction_are_replayed(self):
        # Simulate "mutations landed while the build ran" by compacting a
        # stale capture: ops appended after capture must survive install.
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        captured = dyn._capture()
        dyn.insert(POOL[3])  # arrives "during" the build below
        dyn.delete(0)
        snapshot = dyn._build_snapshot(captured)
        dyn._install_base(snapshot, captured.ops_consumed)
        assert dyn.live_polygon_ids == [1, 2, 3]
        assert dyn.delta_size == 2  # the two replayed ops are pending again
        _assert_matches_fresh_build(dyn, exact=True)

    def test_stale_compaction_install_is_discarded(self):
        # A background build whose capture predates a newer install must
        # not clobber acknowledged mutations when it finishes late.
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        captured = dyn._capture()              # slow "background" capture
        stale = dyn._build_snapshot(captured)
        late_pid = dyn.insert(POOL[3])         # acknowledged after capture
        dyn.compact()                          # newer snapshot installs first
        assert dyn.is_live(late_pid)
        installed = dyn._install_base(
            stale, captured.ops_consumed, expected_epoch=captured.epoch
        )
        assert installed is False              # stale build discarded...
        assert dyn.is_live(late_pid)           # ...and nothing was lost
        _assert_matches_fresh_build(dyn, exact=True)

    def test_background_compaction_chains_until_delta_is_small(self):
        # Ops replayed at install must re-trigger compaction: the worker
        # loops until the pending delta is below the threshold.
        dyn = DynamicPolygonIndex.build(POOL[:1], compact_threshold=2, background=True)
        for polygon in POOL[1:] + POOL[:3]:
            dyn.insert(polygon)
        dyn.wait_for_compaction()
        assert dyn.delta_size < 2
        assert dyn.compactions >= 1
        _assert_matches_fresh_build(dyn, exact=True)

    def test_build_snapshot_uses_captured_training_config(self):
        # Regression: _build_snapshot used to read the LIVE training
        # config, so a retrain() landing between capture and build leaked
        # the new configuration into a snapshot of the old epoch.  The
        # capture must carry the training triple it saw under the lock.
        dyn = DynamicPolygonIndex.build(POOL[:3], compact_threshold=None)
        with dyn._lock:
            captured = dyn._capture()
        assert captured.training_cell_ids is None
        with dyn._lock:  # a concurrent retrain() installs a new config
            dyn._training_cell_ids = dyn.cell_ids_for(LATS[:50], LNGS[:50])
            dyn._training_max_cells = 8
            dyn._training_order = "hot"
        snapshot = dyn._build_snapshot(captured)
        assert snapshot.training_report is None  # captured config, not live

    def test_wait_for_compaction_consumes_error_once(self):
        # Regression: the compaction error used to be published outside
        # the lock and cleared non-atomically; the swap must hand the
        # error to exactly one waiter.
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        boom = RuntimeError("boom")
        with dyn._lock:
            dyn._compaction_error = boom
        with pytest.raises(RuntimeError, match="boom"):
            dyn.wait_for_compaction()
        dyn.wait_for_compaction()  # error already consumed: no raise

    def test_restore_replays_log_and_respects_threshold(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        dyn.delete(0)
        state = dyn.export_state()
        # Restoring with a threshold the replayed log already exceeds
        # compacts immediately instead of stalling above the threshold.
        restored = DynamicPolygonIndex.restore(
            state.base, state.pending, compact_threshold=2
        )
        assert restored.live_polygon_ids == dyn.live_polygon_ids
        assert restored.compactions == 1
        assert restored.delta_size == 0
        a = dyn.join(LATS, LNGS, exact=True)
        b = restored.join(LATS, LNGS, exact=True)
        np.testing.assert_array_equal(a.counts, b.counts)
