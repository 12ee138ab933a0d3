"""Tests for the dynamic index lifecycle (repro.core.dynamic).

The load-bearing guarantee: after ANY sequence of online inserts,
deletes, compactions, retrains and save / load round trips, join results
are identical to brute force and to a fresh ``PolygonIndex.build`` over
the current live polygon set (modulo the stable-id ↔ dense-id mapping).
:class:`DynamicIndexMachine` drives that sequence; the classes after it
pin what one rule cannot (concurrency, the overlay's own mechanics and
what a compaction costs) and keep fixed-input examples of the lifecycle
guarantees.
"""

import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import oracles
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.cells.coverer import CovererOptions
from repro.core import DynamicPolygonIndex, PolygonIndex
from repro.core.dynamic import OverlayCellStore
from repro.core.flat import FlatSnapshot
from repro.core.lookup_table import TAG_OFFSET
from repro.core.serialize import load_index, save_index
from repro.geo import refine as refine_module
from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon, regular_polygon
from repro.serve import JoinService

#: Candidate polygons inserts draw from (deterministic, overlapping mix).
POOL = [
    regular_polygon((-74.00, 40.70), 0.006, 14),
    regular_polygon((-73.98, 40.70), 0.006, 9),
    regular_polygon((-74.00, 40.72), 0.006, 21),
    regular_polygon((-73.985, 40.715), 0.009, 6),
    regular_polygon((-73.995, 40.705), 0.004, 8),
    regular_polygon((-73.99, 40.71), 0.012, 10),
]

#: Coarser than the defaults: a compaction or insert that covers with the
#: defaults instead changes the covering (and the approximate counts).
CUSTOM_OPTIONS = CovererOptions(max_cells=16, max_level=20)


def _probe_points(n=2500, seed=5):
    rng = np.random.default_rng(seed)
    lngs = rng.uniform(-74.015, -73.965, n)
    lats = rng.uniform(40.69, 40.735, n)
    return lats, lngs


LATS, LNGS = _probe_points()


def _brute_counts(polygons_by_id, live) -> np.ndarray:
    """Points per polygon id by ``contains_points``, 0 for dead ids."""
    counts = np.zeros(len(polygons_by_id), dtype=np.int64)
    for pid in live:
        counts[pid] = contains_points(polygons_by_id[pid], LNGS, LATS).sum()
    return counts


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


def _hotspot_cell_ids(polygon: Polygon, seed: int) -> np.ndarray:
    """2,000 training points clustered around a vertex of ``polygon``,
    where the boundary cells training splits are."""
    rng = np.random.default_rng(seed)
    centre = polygon.outer.lngs[0], polygon.outer.lats[0]
    points = centre + rng.normal(0.0, 0.004, (2000, 2))
    return cell_ids_from_lat_lng_arrays(points[:, 1], points[:, 0])


@st.composite
def polygons(draw) -> Polygon:
    """A polygon somewhere over the probe points: a regular n-gon, a square
    with a collinear vertex on an edge, or a square whose triangular hole
    touches the shell at one point."""
    kind = draw(st.sampled_from(["regular", "collinear", "holed"]))
    lng = draw(st.floats(-74.012, -73.968))
    lat = draw(st.floats(40.692, 40.732))
    size = draw(st.floats(0.002, 0.012))
    if kind == "regular":
        return regular_polygon((lng, lat), size, draw(st.integers(3, 24)))
    x0, x1, y0, y1 = lng - size, lng + size, lat - size, lat + size
    if kind == "collinear":
        return Polygon([(x0, y0), (lng, y0), (x1, y0), (x1, y1), (x0, y1)])
    hole = [(lng, y0), (lng + size / 2, lat), (lng - size / 2, lat)]
    return Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], [hole])


class DynamicIndexMachine(RuleBasedStateMachine):
    """Insert / delete / compact / retrain / save → load, read through a
    ``JoinService``; after every step the joins are checked against brute
    force and a fresh build, and the lifecycle counters against a model.
    """

    def __init__(self):
        super().__init__()
        self.files = tempfile.TemporaryDirectory()
        self.saves = 0
        self.service: JoinService | None = None

    @initialize(
        custom_options=st.booleans(),
        precision=st.sampled_from([None, 60.0]),
        threshold=st.sampled_from([None, 3]),
    )
    def start(self, custom_options, precision, threshold):
        options = {"covering_options": CUSTOM_OPTIONS} if custom_options else {}
        self.build_kwargs = {"precision_meters": precision, **options}
        base = PolygonIndex.build(POOL[:2], **self.build_kwargs)
        self.index = DynamicPolygonIndex(base, compact_threshold=threshold)
        self.service = JoinService(self.index)
        self.threshold = threshold
        self.live = {0, 1}  # stable ids
        self.next_id = 2
        self.pending = 0  # inserts + deletes since the last compaction
        self.trained = False
        self.new_base = True  # a base the reload invariant has not seen
        self.version = self.index.version

    def teardown(self):
        if self.service is not None:
            self.service.close()
        self.files.cleanup()

    # -- rules ---------------------------------------------------------

    def _advanced(self) -> None:
        assert self.index.version > self.version
        self.version = self.index.version

    def _wrote(self) -> None:
        self.pending += 1
        if self.threshold is not None and self.pending >= self.threshold:
            self.pending = 0  # the write compacted inline
            self.new_base = True
        self._advanced()

    @rule(polygon=polygons())
    def insert(self, polygon):
        assert self.index.insert(polygon) == self.next_id
        self.live.add(self.next_id)
        self.next_id += 1
        self._wrote()

    @precondition(lambda self: len(self.live) > 1)
    @rule(data=st.data())
    def delete(self, data):
        pid = data.draw(st.sampled_from(sorted(self.live)))
        self.index.delete(pid)
        self.live.remove(pid)
        self._wrote()

    @rule(data=st.data())
    def delete_dead_id(self, data):
        dead = [pid for pid in range(-1, self.next_id + 2) if pid not in self.live]
        pid = data.draw(st.sampled_from(dead))
        with pytest.raises(KeyError):
            self.index.delete(pid)
        assert self.index.version == self.version

    @rule()
    def compact(self):
        self.index.compact()
        self.pending = 0
        self.new_base = True
        self._advanced()

    @rule(data=st.data(), seed=st.integers(0, 2**16), extra_cells=st.integers(10, 80))
    def retrain(self, data, seed, extra_cells):
        pid = data.draw(st.sampled_from(sorted(self.live)))
        self.index.retrain(
            _hotspot_cell_ids(self.index.polygons[pid], seed),
            max_cells=self.index.num_cells + extra_cells,
        )
        self.pending = 0
        self.trained = True
        self.new_base = True
        self._advanced()

    def _saved(self) -> str:
        self.saves += 1
        path = f"{self.files.name}/index-{self.saves}.npy"
        save_index(self.index, path)
        return path

    @rule()
    def save_and_load(self):
        path = self._saved()
        # A loaded copy compacts to the covering the original compacts to
        # (same options, same training configuration and schedule).
        twin = load_index(path)
        assert twin.live_polygon_ids == self.index.live_polygon_ids
        want = self.index.compact().super_covering
        got = twin.compact().super_covering
        for name in ("cell_ids", "ref_offsets", "packed_refs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # The service moves on to a loaded copy of the uncompacted file.
        loaded = load_index(path)
        self.service.swap_layer("default", loaded)
        self.index = loaded
        self.new_base = True
        self._advanced()

    # -- invariants ----------------------------------------------------

    @invariant()
    def lifecycle_counters_match_the_model(self):
        assert self.index.live_polygon_ids == sorted(self.live)
        assert self.index.delta_size == self.pending
        assert self.index.probe_view().version == self.index.version

    @invariant()
    def a_clean_base_is_what_a_loaded_copy_compacts_to(self):
        # With an empty delta the base is a compaction's (or the first
        # build's) output, so a loaded copy must compact to it exactly.
        if self.pending or not self.new_base:
            return
        self.new_base = False
        want = self.index.base.super_covering
        got = load_index(self._saved()).compact().super_covering
        for name in ("cell_ids", "ref_offsets", "packed_refs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @invariant()
    def joins_match_brute_force_and_a_fresh_build(self):
        live = sorted(self.live)
        polygons_by_id = self.index.polygons
        want = _brute_counts(polygons_by_id, live)
        exact = self.service.join(LATS, LNGS, exact=True)
        np.testing.assert_array_equal(exact.counts, want)
        fresh = PolygonIndex.build(
            [polygons_by_id[pid] for pid in live], **self.build_kwargs
        )
        np.testing.assert_array_equal(
            fresh.join(LATS, LNGS, exact=True).counts, want[live]
        )
        approx = self.service.join(LATS, LNGS, materialize=True)
        approx_pairs = set(
            zip(approx.pair_points.tolist(), approx.pair_polygons.tolist())
        )
        for pid in live:
            inside = np.flatnonzero(contains_points(polygons_by_id[pid], LNGS, LATS))
            assert {(int(point), pid) for point in inside} <= approx_pairs
        if self.build_kwargs["precision_meters"] is None and not self.trained:
            # Nothing reshaped the covering: even the approximate counts
            # are those of a fresh build with the same covering options.
            np.testing.assert_array_equal(
                approx.counts[live], fresh.join(LATS, LNGS).counts
            )


TestDynamicIndexMachine = DynamicIndexMachine.TestCase
TestDynamicIndexMachine.settings = settings(
    max_examples=20, stateful_step_count=10, deadline=None
)


class TestConcurrency:
    """One lock for writers, none for readers."""

    def test_writers_racing_compaction_and_retrain_lose_no_write(self):
        # Three threads on two cores, switching every 10 µs: two writers
        # each keep the ids they were acknowledged, a third compacts and
        # retrains until both are done.
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        train_ids = dyn.cell_ids_for(LATS[:500], LNGS[:500])
        acknowledged: list[dict[int, Polygon]] = [{0: POOL[0]}, {1: POOL[1]}]
        errors: list[Exception] = []
        finished = [threading.Event(), threading.Event()]

        def writer(mine: dict[int, Polygon], offset: int, done: threading.Event):
            try:
                for step in range(12):
                    polygon = POOL[(step + offset) % len(POOL)]
                    mine[dyn.insert(polygon)] = polygon
                    if step % 3 == 2:
                        victim = min(mine)
                        dyn.delete(victim)
                        del mine[victim]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def compactor():
            rounds = 0
            while not all(done.is_set() for done in finished):
                if rounds % 2:
                    dyn.retrain(train_ids, max_cells=None)
                else:
                    dyn.compact()
                rounds += 1

        threads = [
            threading.Thread(target=writer, args=(acknowledged[0], 0, finished[0])),
            threading.Thread(target=writer, args=(acknowledged[1], 3, finished[1])),
            threading.Thread(target=compactor),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert dyn.compactions >= 1
        live = {**acknowledged[0], **acknowledged[1]}
        assert dyn.live_polygon_ids == sorted(live)
        polygons_by_id = dyn.polygons
        assert all(polygons_by_id[pid] is polygon for pid, polygon in live.items())
        np.testing.assert_array_equal(
            dyn.join(LATS, LNGS, exact=True).counts,
            _brute_counts(polygons_by_id, sorted(live)),
        )

    def test_readers_racing_one_overlay_append_each_merged_row_once(self):
        """Four readers on two cores, switching every 10 µs, start
        together on a fresh overlay and probe a batch in small chunks,
        each in its own order, so they race to merge the same (base row,
        delta row) pairs: every pair gets one row, the table a reader
        takes after its probe holds every row it returned, and every lane
        decodes to the all-lanes merge."""
        dyn = DynamicPolygonIndex.build(POOL[:4], compact_threshold=None)
        dyn.insert(POOL[4])
        dyn.insert(POOL[5])
        dyn.delete(1)
        ids = cell_ids_from_lat_lng_arrays(LATS, LNGS)
        expected = oracles.overlay_refs_all_lanes(dyn.store, ids)
        chunks = np.array_split(np.arange(len(ids)), 50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):
                overlay = OverlayCellStore(
                    dyn.base.store, dyn.store._delta_store, dyn.store._tombstones
                )
                start = threading.Barrier(4)
                errors: list[BaseException] = []

                def reader(seed: int, overlay=overlay, start=start, errors=errors):
                    try:
                        start.wait(timeout=30)
                        for chunk in np.random.default_rng(seed).permutation(len(chunks)):
                            lanes = chunks[chunk]
                            rows = overlay.probe_rows(ids[lanes])
                            table = overlay.rows
                            assert rows.max() < len(table)
                            got = [
                                overlay.lookup_table.decode_entry(entry) if entry else ()
                                for entry in table.entries[rows].tolist()
                            ]
                            assert got == [expected[lane] for lane in lanes.tolist()]
                    except BaseException as exc:  # pragma: no cover - failure path
                        errors.append(exc)

                threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert not errors
                merged = [row for row in overlay._memo.values() if row]
                assert merged and len(set(merged)) == len(merged)
                assert len(overlay.rows) == len(dyn.base.store.rows) + len(merged)
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_retrain_and_insert_both_land(self):
        dyn = DynamicPolygonIndex.build(POOL[:3], compact_threshold=None)
        train_ids = dyn.cell_ids_for(LATS[:500], LNGS[:500])
        barrier = threading.Barrier(2)
        landed: dict[str, object] = {}

        def retrainer():
            barrier.wait(timeout=30)
            landed["base"] = dyn.retrain(train_ids, max_cells=None)

        def inserter():
            barrier.wait(timeout=30)
            landed["pid"] = dyn.insert(POOL[5])

        threads = [threading.Thread(target=retrainer), threading.Thread(target=inserter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert landed["pid"] == 3 and dyn.is_live(3)
        assert landed["base"].training_report is not None
        # The new configuration governs every later compaction too.
        assert dyn.compact().training_report is not None
        _assert_matches_fresh_build(dyn, exact=True)

    def test_reader_sees_only_whole_generations(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        train_ids = dyn.cell_ids_for(LATS[:500], LNGS[:500])
        generations = {dyn.version: _brute_counts(dyn.polygons, [0, 1])}
        seen: list[tuple[int, np.ndarray]] = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                view = dyn.probe_view()
                seen.append((view.version, view.join(LATS, LNGS, exact=True).counts))

        def write(mutation, *args):
            mutation(*args)
            generations[dyn.version] = _brute_counts(
                dyn.polygons, dyn.live_polygon_ids
            )

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for step, polygon in enumerate(POOL[2:] + POOL[:3]):
                write(dyn.insert, polygon)
                if step % 2:
                    write(dyn.delete, dyn.live_polygon_ids[0])
                if step == 3:
                    write(dyn.retrain, train_ids)
                elif step % 3 == 2:
                    write(dyn.compact)
        finally:
            done.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen
        for version, counts in seen:
            np.testing.assert_array_equal(counts, generations[version])

    def test_reads_never_take_the_index_lock(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[3])
        dyn.delete(0)
        want = _brute_counts(dyn.polygons, dyn.live_polygon_ids)
        with JoinService(dyn) as service:
            results = []
            done = threading.Event()

            def reader():
                results.append(dyn.join(LATS, LNGS, exact=True).counts)
                results.append(dyn.probe_view().join(LATS, LNGS, exact=True).counts)
                results.append(service.join(LATS, LNGS, exact=True).counts)
                results.append(service.lookup(40.70, -73.98))
                done.set()

            # A writer (a compaction, say) holds the lock for the whole read.
            with dyn._lock:
                thread = threading.Thread(target=reader)
                thread.start()
                assert done.wait(timeout=10)
            thread.join(timeout=60)
        for counts in results[:3]:
            np.testing.assert_array_equal(counts, want)
        assert results[3] == [1]

    def test_load_replays_log_and_respects_threshold(self, tmp_path):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        dyn.insert(POOL[2])
        dyn.delete(0)
        save_index(dyn, tmp_path / "dynamic.npy")
        # A file whose threshold the replayed log reaches compacts on load
        # instead of stalling above the threshold.
        snapshot = FlatSnapshot.load(tmp_path / "dynamic.npy", mmap_mode=None)
        snapshot.meta["compact_threshold"] = 2
        snapshot.save(tmp_path / "threshold.npy")
        restored = load_index(tmp_path / "threshold.npy")
        assert restored.live_polygon_ids == dyn.live_polygon_ids
        assert restored.compactions == 1
        assert restored.delta_size == 0
        a = dyn.join(LATS, LNGS, exact=True)
        b = restored.join(LATS, LNGS, exact=True)
        np.testing.assert_array_equal(a.counts, b.counts)


class TestOptionsComeFromTheBase:
    """A wrapped base covers inserts and compactions with its own options."""

    def test_noop_compaction_keeps_a_custom_options_covering(self):
        from repro.datasets.points import uniform_points
        from repro.datasets.workloads import NYC_BOX, polygon_dataset

        base = PolygonIndex.build(
            polygon_dataset("boroughs"), covering_options=CUSTOM_OPTIONS
        )
        dyn = DynamicPolygonIndex(base, compact_threshold=None)
        lats, lngs = uniform_points(NYC_BOX, 50_000, seed=3)
        before = dyn.join(lats, lngs).counts
        compacted = dyn.compact()
        assert compacted.covering_options == CUSTOM_OPTIONS
        for name in ("cell_ids", "ref_offsets", "packed_refs"):
            assert np.array_equal(
                getattr(compacted.super_covering, name),
                getattr(base.super_covering, name),
            ), name
        np.testing.assert_array_equal(dyn.join(lats, lngs).counts, before)

    def test_insert_covers_with_the_base_options(self):
        base = PolygonIndex.build(POOL[:2], covering_options=CUSTOM_OPTIONS)
        dyn = DynamicPolygonIndex(base, compact_threshold=None)
        dyn.insert(POOL[5])
        fresh = PolygonIndex.build(
            [*POOL[:2], POOL[5]], covering_options=CUSTOM_OPTIONS
        )
        np.testing.assert_array_equal(
            dyn.join(LATS, LNGS).counts, fresh.join(LATS, LNGS).counts
        )


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 63)),
    min_size=1,
    max_size=6,
)


class TestEquivalenceProperty:
    """The acceptance criterion on fixed pool polygons, one compaction at
    the end (the machine above interleaves it with the other rules)."""

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
        dyn.delete(2)  # deleting a delta insert: counted as its insert + delete
        assert dyn.delta_size == 3
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

    def test_join_rejects_zero_threads(self):
        """Regression: ``num_threads=0`` silently ran single-threaded."""
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        with pytest.raises(ValueError, match="num_threads must be >= 1, got 0"):
            dyn.join(LATS, LNGS, exact=True, num_threads=0)

    def test_containing_polygons(self):
        dyn = DynamicPolygonIndex.build(POOL[:2], compact_threshold=None)
        pid = dyn.insert(regular_polygon((-73.90, 40.80), 0.006, 12))
        assert dyn.containing_polygons(40.80, -73.90) == [pid]
        dyn.delete(pid)
        assert dyn.containing_polygons(40.80, -73.90) == []

    def test_overlay_probe_matches_the_all_lanes_merge(self):
        """Lanes a write cannot change keep their base entry; every lane
        decodes, against the overlay's lookup table, to the merge of all
        lanes, through inserts and deletes of base and delta polygons
        alike (inline and offset entries, misses and tombstones all
        occur)."""
        lats, lngs = _probe_points(4_000, seed=9)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        # Base ids 1 and 3 overlap 0, and 2 and 3 overlap 1: deleting 2,
        # then 0, tombstones the second, then the first reference of
        # inline two-reference entries.
        base = [POOL[0], POOL[5], POOL[3], POOL[4]]
        dyn = DynamicPolygonIndex.build(base, compact_threshold=None)
        kept_any = False
        for write in (
            lambda: dyn.insert(POOL[1]),
            lambda: dyn.delete(2),
            lambda: dyn.insert(POOL[2]),
            lambda: dyn.delete(4),
            lambda: dyn.delete(0),
        ):
            write()
            overlay = dyn.store
            assert isinstance(overlay, OverlayCellStore)
            got = overlay.probe(ids)
            decoded = [
                overlay.lookup_table.decode_entry(entry) if entry else ()
                for entry in got.tolist()
            ]
            assert decoded == oracles.overlay_refs_all_lanes(overlay, ids)
            kept_any |= bool(np.any((got == dyn.base.store.probe(ids)) & (got != 0)))
        assert kept_any

    @staticmethod
    def _offset_batch(index: PolygonIndex) -> np.ndarray:
        """Leaf ids where three or more POOL polygons meet: every lane's
        base entry is a lookup-table offset."""
        rng = np.random.default_rng(3)
        lngs = rng.uniform(-74.0, -73.984, 20_000)
        lats = rng.uniform(40.70, 40.716, 20_000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        tags = index.store.probe(ids) & np.uint64(3)
        offset = ids[tags == np.uint64(TAG_OFFSET)]
        assert len(offset) >= 500 and len(np.unique(index.store.probe(offset))) >= 5
        return offset

    def test_overlay_without_writes_keeps_every_base_row(self):
        """An overlay with no delta hit and no tombstone merges nothing:
        offset lanes keep their base rows (they used to take the lexsort
        and memo merge on every probe), and their entries decode the
        same against the overlay's lookup table."""
        index = PolygonIndex.build(POOL)
        ids = self._offset_batch(index)
        far = regular_polygon((-73.90, 40.80), 0.006, 14)
        # No delta, and a delta that hits none of the lanes.
        for delta in (None, PolygonIndex.build([far]).store):
            overlay = OverlayCellStore(index.store, delta, ())
            rows = overlay.probe_rows(ids)
            assert np.array_equal(rows, index.store.probe_rows(ids))
            assert overlay._memo == {}
            assert len(overlay.rows) == len(index.store.rows)
            entries = overlay.probe(ids)
            assert np.array_equal(entries, index.store.probe(ids))
            assert [overlay.lookup_table.decode_entry(e) for e in np.unique(entries).tolist()] == [
                index.store.lookup_table.decode_entry(e) for e in np.unique(entries).tolist()
            ]

    def test_tombstone_merges_only_the_rows_that_reference_it(self):
        index = PolygonIndex.build(POOL)
        ids = np.concatenate(
            (self._offset_batch(index), cell_ids_from_lat_lng_arrays(LATS, LNGS))
        )
        base_rows = index.store.probe_rows(ids)
        table = index.store.rows
        for dead in range(len(POOL)):
            overlay = OverlayCellStore(index.store, None, {dead})
            rows = overlay.probe_rows(ids)
            references = {
                row for row in np.unique(base_rows).tolist()
                if dead in table.refs(row)[0].tolist()
            }
            assert references  # every POOL polygon is probed
            assert {base for base, _ in overlay._memo} == references
            kept = ~np.isin(base_rows, list(references))
            assert np.array_equal(rows[kept], base_rows[kept])
            for row in np.unique(rows[~kept]).tolist():
                assert dead not in overlay.rows.refs(row)[0].tolist()

    def test_joins_after_a_delete_equal_a_fresh_build(self):
        for dead in (0, 3, 5):
            dyn = DynamicPolygonIndex.build(POOL, compact_threshold=None)
            dyn.delete(dead)
            assert isinstance(dyn.store, OverlayCellStore)
            for exact in (False, True):
                _assert_matches_fresh_build(dyn, exact=exact)

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
                timings=compacted.timings,
                precision_meters=None,
                training_report=None,
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
