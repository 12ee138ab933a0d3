"""Tests for the online adaptation loop (repro.core.adaptive).

Covers the controller unit pieces (telemetry, entry classification,
training-set synthesis), the retrain entry points on both index types,
the serving integration (drift detection -> background retrain -> swap),
and the cache-key soundness audit for mutations that deepen the covering.
"""

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.core import (
    AdaptationPolicy,
    AdaptiveController,
    DynamicPolygonIndex,
    PolygonIndex,
)
from repro.core.adaptive import (
    MAX_REPEATS_PER_KEY,
    MAX_TRACKED_KEYS,
    LayerTelemetry,
)
from repro.core.joins import decode_entries, expensive_entries
from repro.core.lookup_table import LookupTable
from repro.core.refs import PolygonRef
from repro.core.training import train_super_covering
from repro.datasets import NYC_BOX, drifting_hotspot_workload
from repro.geo.polygon import regular_polygon
from repro.serve import JoinService


def _grid_polygons():
    return [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]


@pytest.fixture(scope="module")
def drift():
    """A small two-phase drifting workload over the grid polygons' box."""
    return drifting_hotspot_workload(
        num_phases=2,
        train_points=8_000,
        query_points=24_000,
        bounds=NYC_BOX,
        seed=99,
    )


@pytest.fixture(scope="module")
def trained_index(drift):
    train_ids = cell_ids_from_lat_lng_arrays(
        drift.phases[0].train_lats, drift.phases[0].train_lngs
    )
    return PolygonIndex.build(
        _grid_polygons(), training_cell_ids=train_ids
    )


def _fast_policy(**overrides) -> AdaptationPolicy:
    defaults = dict(
        sth_target=0.99,  # virtually always below target -> quick trigger
        window_points=4_096,
        min_window_points=2_048,
        cooldown_points=4_096,
        max_training_points=5_000,
    )
    defaults.update(overrides)
    return AdaptationPolicy(**defaults)


class TestEntryClassifier:
    def test_tagged_entries(self):
        table = LookupTable()
        entries = [
            0,  # sentinel / miss
            table.encode((PolygonRef(3, True),)),
            table.encode((PolygonRef(3, False),)),
            table.encode((PolygonRef(1, True), PolygonRef(2, True))),
            table.encode((PolygonRef(1, True), PolygonRef(2, False))),
            table.encode(
                (PolygonRef(1, True), PolygonRef(2, True), PolygonRef(3, True))
            ),
            table.encode(
                (PolygonRef(1, True), PolygonRef(2, True), PolygonRef(3, False))
            ),
        ]
        flags = expensive_entries(np.asarray(entries, dtype=np.uint64), table)
        assert flags.tolist() == [False, False, True, False, True, False, True]
        # Same answer from an attached-buffer table, repeats included.
        assert expensive_entries(
            np.asarray(entries + entries[::-1], dtype=np.uint64),
            LookupTable.attach(table.array),
        ).tolist() == flags.tolist() + flags.tolist()[::-1]


class TestLayerTelemetry:
    def test_window_slides_and_sth_rate(self):
        policy = AdaptationPolicy(window_points=100)
        telemetry = LayerTelemetry(policy)
        keys = np.asarray([CellId.from_degrees(40.7, -74.0).parent(20).id],
                          dtype=np.uint64)
        # 60 refined points, then 60 clean ones: the refined batch slides out.
        telemetry.record(keys, np.asarray([60]), np.asarray([True]))
        assert telemetry.window_sth_rate() == 0.0
        telemetry.record(keys, np.asarray([60]), np.asarray([False]))
        assert telemetry.window_sth_rate() == 1.0

    def test_should_adapt_gates(self):
        policy = AdaptationPolicy(
            sth_target=0.9, window_points=1000, min_window_points=100,
            cooldown_points=200,
        )
        telemetry = LayerTelemetry(policy)
        key = np.asarray([5], dtype=np.uint64)
        telemetry.record(key, np.asarray([50]), np.asarray([True]))
        assert not telemetry.should_adapt()  # window below minimum
        telemetry.record(key, np.asarray([150]), np.asarray([True]))
        assert telemetry.should_adapt()
        telemetry.reset_after_retrain()
        telemetry.record(key, np.asarray([150]), np.asarray([True]))
        assert not telemetry.should_adapt()  # inside the cooldown
        telemetry.record(key, np.asarray([100]), np.asarray([True]))
        assert telemetry.should_adapt()

    def test_histogram_prune_keeps_hottest(self):
        telemetry = LayerTelemetry(AdaptationPolicy())
        keys = 2 * np.arange(MAX_TRACKED_KEYS + 1, dtype=np.uint64) + 1
        weights = np.arange(1, MAX_TRACKED_KEYS + 2)
        telemetry.record(keys, weights, np.ones(len(keys), dtype=bool))
        hot = telemetry.snapshot_hot()
        assert len(hot) == MAX_TRACKED_KEYS // 2
        assert max(hot.values()) == MAX_TRACKED_KEYS + 1  # the hottest survived
        assert int(keys[0]) not in hot  # the coldest went


class TestTelemetryObserve:
    """One served batch leaves exactly the brute-force histogram: each
    point whose entry holds a candidate counts once, under its ancestor
    at the view's ``max_cell_level`` — whichever way the batch was
    probed."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("probe", ["warm_cache", "cold_cache", "no_cache", "morsels"])
    def test_histogram_is_the_brute_force_count(
        self, trained_index, drift, probe, exact
    ):
        lats = drift.phases[1].query_lats[:4_096]
        lngs = drift.phases[1].query_lngs[:4_096]
        view = trained_index.probe_view()
        cell_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        point_idx, _, is_true = decode_entries(
            view.store.probe(cell_ids), view.lookup_table
        )
        want = Counter(
            CellId(int(leaf)).parent(view.max_cell_level).id
            for leaf in cell_ids[np.unique(point_idx[~is_true])]
        )
        assert want  # the stream does refine
        options = {
            "warm_cache": {},
            "cold_cache": {},
            "no_cache": {"cache_cells": 0},
            "morsels": {"num_threads": 2, "morsel_size": 1_000},
        }[probe]
        with JoinService(
            trained_index, adaptation=AdaptationPolicy(sth_target=0.0), **options
        ) as svc:
            telemetry = svc.adaptation.telemetry_for("default")
            if probe == "warm_cache":
                svc.join(lats, lngs, exact=exact)
            before = Counter(telemetry.snapshot_hot())
            svc.join(lats, lngs, exact=exact)
            after = Counter(telemetry.snapshot_hot())
            if probe == "warm_cache":
                assert svc.cache().stats().hits > 0
        assert after - before == want


class TestTrainingIdSynthesis:
    def test_spreads_within_cell_and_caps(self):
        controller = AdaptiveController(AdaptationPolicy(max_training_points=1_000))
        cell = CellId.from_degrees(40.7, -74.0).parent(18)
        ids = controller.training_ids_from({cell.id: 1_000})
        assert len(ids) == MAX_REPEATS_PER_KEY  # per-key cap
        assert len(np.unique(ids)) == MAX_REPEATS_PER_KEY  # spread, not stacked
        lo, hi = cell.range_min().id, cell.range_max().id
        assert all(lo <= int(i) <= hi for i in ids)
        assert all(int(i) & 1 for i in ids)  # all leaf ids

    def test_hottest_first_and_total_cap(self):
        controller = AdaptiveController(
            AdaptationPolicy(max_training_points=MAX_REPEATS_PER_KEY + 3)
        )
        cold = CellId.from_degrees(40.7, -74.0).parent(18)
        warm = CellId.from_degrees(40.72, -74.01).parent(18)
        hot = CellId.from_degrees(40.75, -73.99).parent(18)
        ids = controller.training_ids_from({cold.id: 2, warm.id: 100, hot.id: 500})
        # The hot cell capped per key, then the warm one up to the total.
        assert len(ids) == MAX_REPEATS_PER_KEY + 3

        def inside(cell):
            lo, hi = cell.range_min().id, cell.range_max().id
            return sum(1 for i in ids if lo <= int(i) <= hi)

        assert (inside(hot), inside(warm), inside(cold)) == (MAX_REPEATS_PER_KEY, 3, 0)

    def test_empty_histogram(self):
        controller = AdaptiveController(AdaptationPolicy())
        assert len(controller.training_ids_from({})) == 0


class TestIndexRetrainEntryPoints:
    def test_polygon_index_retrained_snapshot(self, trained_index, drift):
        phase1 = drift.phases[1]
        observed = cell_ids_from_lat_lng_arrays(
            phase1.train_lats[:4000], phase1.train_lngs[:4000]
        )
        fresh = trained_index.retrained(
            observed, max_cells=4 * trained_index.num_cells
        )
        assert fresh.version > trained_index.version
        assert fresh is not trained_index
        assert fresh.training_report is not None
        # Exactness is preserved: same counts on the drifted stream.
        lats, lngs = phase1.query_lats[:6000], phase1.query_lngs[:6000]
        before = trained_index.join(lats, lngs, exact=True)
        after = fresh.join(lats, lngs, exact=True)
        assert np.array_equal(before.counts, after.counts)
        assert after.num_pip_tests <= before.num_pip_tests

    def test_dynamic_retrain_folds_delta(self, drift):
        phase1 = drift.phases[1]
        polygons = _grid_polygons()
        dyn = DynamicPolygonIndex.build(polygons, compact_threshold=None)
        extra = regular_polygon((-73.97, 40.73), 0.009, 12)
        pid = dyn.insert(extra)
        dyn.delete(0)
        version_before = dyn.version
        observed = cell_ids_from_lat_lng_arrays(
            phase1.train_lats[:4000], phase1.train_lngs[:4000]
        )
        installed = dyn.retrain(observed, max_cells=None)
        assert installed is not None
        assert dyn.version > version_before
        assert dyn.delta_size == 0  # pending ops folded into the new base
        assert dyn.is_live(pid) and not dyn.is_live(0)
        live = [p for i, p in enumerate(polygons) if i != 0] + [extra]
        fresh = PolygonIndex.build(live)
        lats, lngs = phase1.query_lats[:6000], phase1.query_lngs[:6000]
        got = dyn.join(lats, lngs, exact=True)
        want = fresh.join(lats, lngs, exact=True)
        assert got.num_pairs == want.num_pairs
        assert int(got.counts.sum()) == int(want.counts.sum())


class TestServiceAdaptation:
    def test_static_layer_retrains_and_preserves_results(self, trained_index, drift):
        phase1 = drift.phases[1]
        lats, lngs = phase1.query_lats, phase1.query_lngs
        with JoinService(
            trained_index, adaptation=_fast_policy(), cache_cells=1 << 14
        ) as svc:
            for lo in range(0, 16_000, 4_000):
                svc.join(lats[lo : lo + 4_000], lngs[lo : lo + 4_000], exact=True)
            svc.adaptation.wait(timeout=120.0)
            if svc.adaptation.last_error is not None:
                raise svc.adaptation.last_error
            stats = svc.stats()
            assert stats.retrains >= 1
            status = stats.adaptation["default"]
            assert status.retrains_completed >= 1
            assert status.last_trained_version > trained_index.version
            assert 0.0 <= stats.live_sth_rate <= 1.0
            served = svc.join(lats[16_000:], lngs[16_000:], exact=True)
        fresh = PolygonIndex.build(_grid_polygons())
        want = fresh.join(lats[16_000:], lngs[16_000:], exact=True)
        assert np.array_equal(served.counts, want.counts)
        assert served.num_pairs == want.num_pairs

    def test_dynamic_layer_retrains_through_compaction(self, drift):
        phase1 = drift.phases[1]
        dyn = DynamicPolygonIndex.build(_grid_polygons(), compact_threshold=None)
        pid = dyn.insert(regular_polygon((-73.98, 40.74), 0.008, 12))
        with JoinService(
            dyn, adaptation=_fast_policy(), cache_cells=1 << 14
        ) as svc:
            for lo in range(0, 16_000, 4_000):
                svc.join(
                    phase1.query_lats[lo : lo + 4_000],
                    phase1.query_lngs[lo : lo + 4_000],
                    exact=True,
                )
            svc.adaptation.wait(timeout=120.0)
            if svc.adaptation.last_error is not None:
                raise svc.adaptation.last_error
            assert svc.stats().retrains >= 1
            assert dyn.compactions >= 1
            assert dyn.is_live(pid)

    def test_adaptation_off_by_default(self, trained_index):
        with JoinService(trained_index) as svc:
            svc.join(np.asarray([40.7]), np.asarray([-74.0]), exact=True)
            stats = svc.stats()
        assert svc.adaptation is None
        assert stats.adaptation == {}
        assert stats.live_sth_rate == 1.0

    def test_telemetry_recorded_with_cache_disabled(self, trained_index, drift):
        phase1 = drift.phases[1]
        with JoinService(
            trained_index, adaptation=_fast_policy(), cache_cells=0
        ) as svc:
            svc.join(
                phase1.query_lats[:4_096], phase1.query_lngs[:4_096], exact=True
            )
            status = svc.stats().adaptation["default"]
        assert status.window_points == 4_096

    def test_concurrent_lookups_during_retrain_stay_correct(self, trained_index, drift):
        phase1 = drift.phases[1]
        fresh = PolygonIndex.build(_grid_polygons())
        spots = [
            (float(phase1.query_lats[i]), float(phase1.query_lngs[i]))
            for i in range(0, 1200, 40)
        ]
        expected = {
            spot: fresh.containing_polygons(spot[0], spot[1]) for spot in spots
        }
        failures: list = []

        def client(svc):
            for spot, want in expected.items():
                got = svc.lookup(spot[0], spot[1], exact=True)
                if got != want:
                    failures.append((spot, got, want))

        with JoinService(
            trained_index, adaptation=_fast_policy(), cache_cells=1 << 14,
            max_wait_ms=0.2,
        ) as svc:
            threads = [
                threading.Thread(target=client, args=(svc,)) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for lo in range(0, 20_000, 4_000):
                svc.join(
                    phase1.query_lats[lo : lo + 4_000],
                    phase1.query_lngs[lo : lo + 4_000],
                    exact=True,
                )
            for thread in threads:
                thread.join()
            svc.adaptation.wait(timeout=120.0)
        assert not failures


class TestCacheKeySoundness:
    """Mutations that deepen the covering vs a warm hot-cell table.

    A table serves one ``(layer, version)`` generation; its coordinate
    keys are sound because, within a generation, equal coordinates have
    the same leaf id and entry.  Both deepening mutations — a fine delta
    insert and a training split — bump the version, so a warm table from
    the old generation can never answer for the new one.
    """

    def test_fine_insert_into_coarse_served_layer(self):
        # One big coarse polygon: shallow covering, aggressive truncation.
        coarse = regular_polygon((-74.0, 40.70), 0.05, 24)
        dyn = DynamicPolygonIndex.build([coarse], compact_threshold=None)
        spots = [
            (40.70 + dy, -74.0 + dx)
            for dy in (-0.002, -0.0005, 0.0, 0.0005, 0.002)
            for dx in (-0.002, -0.0005, 0.0, 0.0005, 0.002)
        ]
        with JoinService(dyn, cache_cells=1 << 14) as svc:
            for _ in range(3):  # warm the coarse-generation cache
                for lat, lng in spots:
                    svc.lookup(lat, lng)
            tiny = regular_polygon((-74.0, 40.70), 0.0008, 10)
            pid = dyn.insert(tiny)
            fresh = PolygonIndex.build([coarse, tiny])
            for lat, lng in spots:
                assert svc.lookup(lat, lng) == fresh.containing_polygons(lat, lng)
            assert any(
                pid in svc.lookup(lat, lng) for lat, lng in spots
            )  # the fine polygon is actually visible through the cache

    def test_training_split_deepens_served_layer(self):
        polygons = _grid_polygons()
        index = PolygonIndex.build(polygons)
        rng = np.random.default_rng(31)
        # A tight hotspot on the center polygon's boundary: repeated hits
        # keep splitting the same expensive subtree, pushing cells past
        # the base covering's maximum level.
        lats = rng.normal(40.72 + 0.011, 2e-5, 3_000)
        lngs = rng.normal(-73.98, 2e-5, 3_000)
        observed = cell_ids_from_lat_lng_arrays(lats, lngs)
        spot_lats = rng.uniform(40.67, 40.77, 20)
        spot_lngs = rng.uniform(-74.03, -73.93, 20)
        spots = [
            (float(a), float(b)) for a, b in zip(spot_lats, spot_lngs)
        ] + [(float(lats[0]), float(lngs[0]))]  # one inside the hotspot
        with JoinService(index, cache_cells=1 << 14) as svc:
            for _ in range(2):  # warm the pre-retrain cache generation
                for lat, lng in spots:
                    svc.lookup(lat, lng)
            retrained = index.retrained(observed)
            assert retrained.max_cell_level() > index.max_cell_level()
            svc.swap_layer("default", retrained)
            fresh = PolygonIndex.build(polygons)
            for lat, lng in spots:
                assert svc.lookup(lat, lng) == fresh.containing_polygons(lat, lng)


class TestAdaptationExactness:
    """Hypothesis: adaptation can never change join results."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        budget_extra=st.integers(min_value=10, max_value=400),
        order=st.sampled_from(["arrival", "hot"]),
    )
    def test_trained_join_bit_identical_to_untrained(
        self, seed, budget_extra, order
    ):
        polygons = _grid_polygons()
        untrained = PolygonIndex.build(polygons)
        trained = PolygonIndex.build(polygons)
        rng = np.random.default_rng(seed)
        hotspot_lng = rng.uniform(-74.02, -73.94)
        hotspot_lat = rng.uniform(40.68, 40.76)
        train_lngs = rng.normal(hotspot_lng, 0.004, 800)
        train_lats = rng.normal(hotspot_lat, 0.004, 800)
        observed = cell_ids_from_lat_lng_arrays(train_lats, train_lngs)
        train_super_covering(
            trained.super_covering,
            polygons,
            observed,
            max_cells=trained.num_cells + budget_extra,
            order=order,
        )
        trained.super_covering.check_disjoint()
        trained._rebuild_store()
        query_lngs = rng.uniform(-74.03, -73.93, 3_000)
        query_lats = rng.uniform(40.67, 40.77, 3_000)
        want = untrained.join(query_lats, query_lngs, exact=True)
        got = trained.join(query_lats, query_lngs, exact=True)
        assert np.array_equal(got.counts, want.counts)
        assert got.num_pairs == want.num_pairs
