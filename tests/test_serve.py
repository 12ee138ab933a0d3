"""Tests for the online serving subsystem (repro.serve)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import JoinService, PolygonIndex
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core import DynamicPolygonIndex
from repro.geo.polygon import regular_polygon
from repro.obs import Observability
from repro.serve import (
    LatencyRecorder,
    CachedCellStore,
    HotCellCache,
    LayerRouter,
    MicroBatcher,
    MorselExecutor,
    ShardedJoinService,
)
from repro.serve.batching import LookupRequest
from repro.serve.cache import key_shift_for_level


def _grid_polygons(origin_lng=-74.0, origin_lat=40.70):
    return [
        regular_polygon((origin_lng + gx * 0.02, origin_lat + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]


@pytest.fixture(scope="module")
def index():
    return PolygonIndex.build(_grid_polygons(), precision_meters=30.0)


@pytest.fixture(scope="module")
def second_index():
    # A coarser second layer over the same area (different polygon set).
    polygons = [
        regular_polygon((-74.0 + gx * 0.04, 40.70 + gy * 0.04), 0.02, 12)
        for gx in range(2)
        for gy in range(2)
    ]
    return PolygonIndex.build(polygons, precision_meters=60.0)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(21)
    lngs = rng.uniform(-74.03, -73.93, 8_000)
    lats = rng.uniform(40.67, 40.77, 8_000)
    return lats, lngs


@pytest.fixture()
def service(index, second_index):
    with JoinService(
        {"zones": index, "coarse": second_index},
        default_layer="zones",
        max_wait_ms=0.5,
    ) as svc:
        yield svc


class TestServiceJoin:
    @pytest.mark.parametrize("exact", [False, True])
    def test_counts_identical_to_direct_join(self, index, points, exact):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=exact)
        with JoinService(index) as svc:
            served = svc.join(lats, lngs, exact=exact)
        assert np.array_equal(served.counts, direct.counts)
        assert served.num_pairs == direct.num_pairs
        assert served.num_pip_tests == direct.num_pip_tests
        assert served.solely_true_hits == direct.solely_true_hits

    @pytest.mark.parametrize("exact", [False, True])
    def test_counts_identical_with_warm_cache(self, index, points, exact):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=exact)
        with JoinService(index) as svc:
            svc.join(lats, lngs, exact=exact)  # warm the cache
            served = svc.join(lats, lngs, exact=exact)
        assert np.array_equal(served.counts, direct.counts)

    @pytest.mark.parametrize("exact", [False, True])
    def test_counts_identical_with_morsel_parallelism(self, index, points, exact):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=exact)
        with JoinService(index, num_threads=4, morsel_size=512) as svc:
            served = svc.join(lats, lngs, exact=exact)
        assert np.array_equal(served.counts, direct.counts)
        assert served.num_pairs == direct.num_pairs
        assert served.solely_true_hits == direct.solely_true_hits

    def test_materialized_pairs_match_direct(self, index, points):
        lats, lngs = points
        direct = index.join(lats, lngs, materialize=True)
        with JoinService(index, num_threads=2, morsel_size=1024) as svc:
            served = svc.join(lats, lngs, materialize=True)
        direct_pairs = set(zip(direct.pair_points.tolist(), direct.pair_polygons.tolist()))
        served_pairs = set(zip(served.pair_points.tolist(), served.pair_polygons.tolist()))
        assert served_pairs == direct_pairs

    def test_multi_layer_counts_identical(self, service, index, second_index, points):
        lats, lngs = points
        results = service.join_layers(lats, lngs)
        assert set(results) == {"zones", "coarse"}
        assert np.array_equal(results["zones"].counts, index.join(lats, lngs).counts)
        assert np.array_equal(
            results["coarse"].counts, second_index.join(lats, lngs).counts
        )

    def test_layer_selection(self, service, second_index, points):
        lats, lngs = points
        only = service.join_layers(lats, lngs, layers=["coarse"])
        assert list(only) == ["coarse"]
        assert np.array_equal(only["coarse"].counts, second_index.join(lats, lngs).counts)

    def test_unknown_layer_raises(self, service, points):
        lats, lngs = points
        with pytest.raises(KeyError, match="nope"):
            service.join(lats, lngs, layer="nope")
        with pytest.raises(KeyError):
            service.submit(40.7, -74.0, layer="nope")

    def test_served_index_survives_add_polygon(self, points):
        # add_polygon rebuilds the index's store AND lookup table; the
        # service must drop its cached store instead of mixing old/new.
        lats, lngs = points
        index = PolygonIndex.build(_grid_polygons(), precision_meters=30.0)
        with JoinService(index) as svc:
            svc.join(lats, lngs)  # warm the (soon stale) cache
            index.add_polygon(regular_polygon((-73.96, 40.76), 0.015, 14))
            served = svc.join(lats, lngs, exact=True)
        assert np.array_equal(served.counts, index.join(lats, lngs, exact=True).counts)


#: The two services behind the one request front (``ServiceFront``).
FRONTS = {
    "JoinService": JoinService,
    "ShardedJoinService-inline": lambda layers, **options: ShardedJoinService(
        layers, num_shards=3, backend="inline", **options
    ),
}


@pytest.fixture(params=sorted(FRONTS))
def make_front(request):
    return FRONTS[request.param]


class TestFrontContract:
    """The request surface both services inherit from ``ServiceFront``."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_join_with_and_without_cell_ids(self, make_front, index, points, exact):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=exact)
        with make_front(index) as svc:
            for cell_ids in (None, index.cell_ids_for(lats, lngs)):
                served = svc.join(lats, lngs, exact=exact, cell_ids=cell_ids)
                assert np.array_equal(served.counts, direct.counts)
                assert served.num_pairs == direct.num_pairs
                assert served.num_pip_tests == direct.num_pip_tests

    def test_given_cell_ids_are_used_not_recomputed(self, make_front, index, points):
        # An approximate join reads nothing but the cell ids: handing in
        # the ids of OTHER points must answer for those points.
        lats, lngs = points
        other = index.cell_ids_for(lats[::-1] + 0.01, lngs[::-1])
        with make_front(index) as svc:
            served = svc.join(lats, lngs, cell_ids=other)
        expected = index.join(lats[::-1] + 0.01, lngs[::-1])
        assert np.array_equal(served.counts, expected.counts)
        assert not np.array_equal(served.counts, index.join(lats, lngs).counts)

    def test_mismatched_input_lengths_raise(self, make_front, index, points):
        # Regression: lats/lngs of different shapes used to broadcast (a
        # 2-point result for 2 lats and 1 lng), and cell_ids of any
        # length were accepted.
        lats, lngs = points[0][:2], points[1][:2]
        with make_front(index) as svc:
            with pytest.raises(ValueError, match="same shape"):
                svc.join(lats, lngs[:1])
            with pytest.raises(ValueError, match="one id per point"):
                svc.join(lats, lngs, cell_ids=index.cell_ids_for(lats, lngs)[:1])
            # Regression: with cell_ids given nobody compared lats with
            # lngs — a short lngs raised IndexError deep inside the
            # dispatch (the sharded front's, with its lock held and a
            # scatter span open), a long one was silently accepted.
            ids = index.cell_ids_for(lats, lngs)
            for wrong in (lngs[:1], points[1][:3]):
                for exact in (False, True):
                    with pytest.raises(ValueError, match="same shape"):
                        svc.join(lats, wrong, cell_ids=ids, exact=exact)
                    with pytest.raises(ValueError, match="same shape"):
                        svc.join_layers(lats, wrong, exact=exact)
            assert svc.join(lats, lngs).num_points == 2

    def test_join_layers_request_and_point_accounting(
        self, make_front, index, second_index, points
    ):
        lats, lngs = points[0][:700], points[1][:700]
        with make_front({"a": index, "b": second_index}) as svc:
            before = svc.stats()
            results = svc.join_layers(lats, lngs, exact=True)
            only = svc.join_layers(lats, lngs, layers=["b"])
            after = svc.stats()
        assert list(results) == ["a", "b"] and list(only) == ["b"]
        for name, layer in (("a", index), ("b", second_index)):
            direct = layer.join(lats, lngs, exact=True)
            assert np.array_equal(results[name].counts, direct.counts)
            assert results[name].num_pip_tests == direct.num_pip_tests
        # One client-visible request per fan-out; every routed layer
        # joins the whole batch.
        assert after.requests - before.requests == 2
        assert after.points - before.points == (2 + 1) * len(lats)
        assert after.dispatches - before.dispatches == 2 + 1

    def test_submit_and_lookup_match_containing_polygons(
        self, make_front, index, points
    ):
        lats, lngs = points
        with make_front(index, max_wait_ms=0.5) as svc:
            futures = [svc.submit(lats[i], lngs[i]) for i in range(30)]
            for i, future in enumerate(futures):
                expected = index.containing_polygons(lats[i], lngs[i])
                assert future.result(timeout=30) == expected
                assert svc.lookup(lats[i], lngs[i]) == expected

    def test_unknown_layer_raises_key_error(self, make_front, index, points):
        lats, lngs = points[0][:10], points[1][:10]
        with make_front(index) as svc:
            with pytest.raises(KeyError, match="nope"):
                svc.join(lats, lngs, layer="nope")
            with pytest.raises(KeyError, match="nope"):
                svc.join_layers(lats, lngs, layers=["nope"])
            with pytest.raises(KeyError, match="nope"):
                svc.submit(40.7, -74.0, layer="nope")
            with pytest.raises(KeyError, match="nope"):
                svc.lookup(40.7, -74.0, layer="nope")

    def test_closed_service_rejects_work(self, make_front, index, points):
        lats, lngs = points[0][:10], points[1][:10]
        with make_front(index) as svc:
            assert svc.join(lats, lngs).num_points == 10
        # The context manager closed it; close() itself is idempotent.
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.join(lats, lngs)
        with pytest.raises(RuntimeError, match="closed"):
            svc.join_layers(lats, lngs)
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(40.7, -74.0)

    def test_traced_lookup_dispatch_has_a_scatter_child(self, make_front, index):
        obs = Observability()
        with make_front(index, obs=obs, max_wait_ms=0.5) as svc:
            assert svc.obs is obs and svc.tracer is obs.tracer
            svc.lookup(40.70, -74.0)
        spans = obs.tracer.spans()
        (dispatch,) = [
            r for r in spans
            if r.name == "dispatch" and (r.meta or {}).get("kind") == "lookup"
        ]
        assert any(
            r.name == "scatter" and r.parent_id == dispatch.span_id for r in spans
        )


class TestMicroBatching:
    def test_lookup_matches_containing_polygons(self, service, index, points):
        lats, lngs = points
        for i in range(25):
            assert service.lookup(lats[i], lngs[i], exact=True) == (
                index.containing_polygons(lats[i], lngs[i])
            )

    def test_concurrent_submission_many_threads(self, service, index, points):
        lats, lngs = points
        num = 300
        expected = [
            index.containing_polygons(lats[i], lngs[i]) for i in range(num)
        ]
        with ThreadPoolExecutor(max_workers=16) as clients:
            futures = [
                clients.submit(service.lookup, lats[i], lngs[i], exact=True)
                for i in range(num)
            ]
            got = [f.result(timeout=30) for f in futures]
        assert got == expected

    def test_concurrent_lookups_coalesce(self, index, points):
        lats, lngs = points
        with JoinService(index, max_batch=64, max_wait_ms=20.0) as svc:
            with ThreadPoolExecutor(max_workers=16) as clients:
                futures = [
                    clients.submit(svc.lookup, lats[i], lngs[i])
                    for i in range(128)
                ]
                for f in futures:
                    f.result(timeout=30)
            stats = svc.stats()
        assert stats.requests == 128
        # Coalescing must have packed multiple lookups per dispatch.
        assert stats.dispatches < 128

    def test_mixed_routes_in_one_batch(self, service, index, second_index, points):
        lats, lngs = points
        futures = [
            service.submit(lats[0], lngs[0], layer="zones"),
            service.submit(lats[0], lngs[0], layer="coarse", exact=True),
            service.submit(lats[1], lngs[1], layer="zones", exact=True),
        ]
        assert futures[0].result(timeout=30) is not None
        assert futures[1].result(timeout=30) == second_index.containing_polygons(
            lats[0], lngs[0]
        )
        assert futures[2].result(timeout=30) == index.containing_polygons(
            lats[1], lngs[1]
        )

    def test_flush_errors_propagate_to_futures(self):
        def broken_flush(layer, exact, requests):
            raise ValueError("boom")

        with MicroBatcher(broken_flush, max_wait_ms=0.0) as batcher:
            future = batcher.submit(LookupRequest(40.7, -74.0))
            with pytest.raises(ValueError, match="boom"):
                future.result(timeout=10)

    def test_cancelled_future_does_not_poison_batch(self, index, points):
        lats, lngs = points
        with JoinService(index, max_batch=8, max_wait_ms=200.0) as svc:
            cancelled = svc.submit(lats[0], lngs[0])
            alive = svc.submit(lats[1], lngs[1])
            assert cancelled.cancel()
            # The batchmate must still get its own result.
            assert alive.result(timeout=30) == index.containing_polygons(
                lats[1], lngs[1]
            )

    def test_close_drains_queue(self, index, points):
        lats, lngs = points
        svc = JoinService(index, max_batch=8, max_wait_ms=50.0)
        futures = [svc.submit(lats[i], lngs[i]) for i in range(20)]
        svc.close()
        for f in futures:
            assert f.result(timeout=10) is not None


class TestMicroBatcherEdges:
    """Edge coverage of the batcher itself (no service on top)."""

    def test_close_drains_already_queued_requests(self):
        # Requests stack up while a flush is stuck; close() must still
        # dispatch every one of them before joining the thread.
        release = threading.Event()
        flushed: list[LookupRequest] = []

        def slow_flush(layer, exact, requests):
            release.wait(timeout=30)
            flushed.extend(requests)
            for request in requests:
                request.future.set_result(len(requests))

        batcher = MicroBatcher(slow_flush, max_batch=4, max_wait_ms=0.0)
        futures = [batcher.submit(LookupRequest(40.7, -74.0)) for _ in range(13)]
        release.set()
        batcher.close()
        assert len(flushed) == 13
        for future in futures:
            assert future.result(timeout=1) >= 1
        # A post-close submit is refused, not silently dropped.
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(LookupRequest(40.7, -74.0))

    def test_cancelled_future_skipped_without_poisoning_batch(self):
        # A client-cancelled request must be excluded from the flush (its
        # future can no longer accept a result) while its batchmates are
        # answered normally.
        seen: list[int] = []

        def flush(layer, exact, requests):
            seen.append(len(requests))
            for request in requests:
                request.future.set_result("ok")

        with MicroBatcher(flush, max_batch=8, max_wait_ms=200.0) as batcher:
            doomed = batcher.submit(LookupRequest(40.7, -74.0))
            alive = batcher.submit(LookupRequest(40.71, -74.01))
            assert doomed.cancel()
            assert alive.result(timeout=10) == "ok"
        assert seen == [1]  # the cancelled request never reached the flush
        assert doomed.cancelled()

    def test_all_cancelled_batch_flushes_nothing(self):
        calls: list[int] = []

        def flush(layer, exact, requests):
            calls.append(len(requests))

        with MicroBatcher(flush, max_batch=8, max_wait_ms=200.0) as batcher:
            first = batcher.submit(LookupRequest(40.7, -74.0))
            second = batcher.submit(LookupRequest(40.71, -74.01))
            assert first.cancel() and second.cancel()
        assert calls == []
        assert batcher.batches_dispatched == 0

    def test_flush_exception_reaches_every_waiter(self):
        def broken_flush(layer, exact, requests):
            raise RuntimeError("store melted")

        with MicroBatcher(broken_flush, max_batch=16, max_wait_ms=100.0) as batcher:
            futures = [
                batcher.submit(LookupRequest(40.7 + i * 1e-4, -74.0))
                for i in range(5)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="store melted"):
                    future.result(timeout=10)

    def test_flush_exception_spares_already_resolved_futures(self):
        # A flush that answers some futures and then dies must not
        # overwrite the delivered results, only fail the remaining ones.
        def half_flush(layer, exact, requests):
            requests[0].future.set_result("delivered")
            raise RuntimeError("died halfway")

        with MicroBatcher(half_flush, max_batch=4, max_wait_ms=150.0) as batcher:
            first = batcher.submit(LookupRequest(40.7, -74.0))
            second = batcher.submit(LookupRequest(40.71, -74.01))
            assert first.result(timeout=10) == "delivered"
            with pytest.raises(RuntimeError, match="died halfway"):
                second.result(timeout=10)


class TestHotCellCache:
    @staticmethod
    def _words(values) -> np.ndarray:
        return np.asarray(values, dtype=np.uint64)

    @classmethod
    def _keys(cls, values) -> tuple[np.ndarray, np.ndarray]:
        """Two-word keys whose words differ, so a test that compared
        only one of them would notice."""
        words = cls._words(values)
        return words, words ^ np.uint64(0x5555)

    @staticmethod
    def _sampled_lookup(cache: HotCellCache, keys: tuple[np.ndarray, np.ndarray]):
        """The next lookup the table performs.  A cold flood rightly
        stands the table aside; the replacement policy under test is
        what happens on the lookups it samples."""
        while (looked := cache.lookup(*keys)) is None:
            pass
        return looked

    def test_eviction_spares_keys_the_batch_used(self):
        # Whatever the hash layout: a key read in every batch is never the
        # victim of that batch's inserts, so it survives any flood, while
        # the flood evicts its own kind and the table never overflows.
        cache = HotCellCache(capacity=8)
        hot = self._keys([7])
        _, _, missing, tick = cache.lookup(*hot)
        assert missing.tolist() == [0]
        cache.insert(*hot, self._words([700]), self._words([70]), tick)
        for round_number in range(40):
            cold = np.arange(100, 116, dtype=np.uint64) + np.uint64(16 * round_number)
            leaf_ids, entries, missing, tick = self._sampled_lookup(
                cache, self._keys(np.concatenate([[7], cold]))
            )
            assert (leaf_ids[0], entries[0]) == (700, 70)
            assert missing.tolist() == list(range(1, 17))  # cold keys never repeat
            cache.insert(*self._keys(cold), cold, cold * np.uint64(10), tick)
            assert len(cache) <= cache.slots
        stats = cache.stats()
        assert stats.evictions > 0
        assert stats.size == len(cache) <= cache.slots == 8
        assert stats.hits == 40 and stats.misses == 1 + 40 * 16

    def test_hit_and_miss_accounting(self):
        cache = HotCellCache(capacity=4)
        keys = self._keys([7, 7, 7])
        leaf_ids, entries, missing, tick = cache.lookup(*keys)
        assert leaf_ids.tolist() == entries.tolist() == [0, 0, 0]
        assert missing.tolist() == [0, 1, 2]
        cache.insert(*keys, self._words([700] * 3), self._words([70] * 3), tick)
        leaf_ids, entries, missing, _ = cache.lookup(*self._keys([7, 7, 7, 7, 7]))
        assert leaf_ids.tolist() == [700] * 5
        assert entries.tolist() == [70] * 5
        assert missing.size == 0
        stats = cache.stats()
        assert stats.misses == 3  # point-weighted: every repeat counts
        assert stats.hits == 5
        assert stats.hit_rate == 5 / 8
        assert stats.size == len(cache) == 1
        assert stats.evictions == 0

    def test_sentinel_entry_and_zero_key_are_cacheable(self):
        # Entry 0 (a probe miss in the store) is a result like any other,
        # and key (0, 0) (the point 0.0, 0.0) must not be confused with
        # an empty slot.
        zero = (self._words([0]), self._words([0]))
        for keys, entry in ((zero, 9), (self._keys([5]), 0)):
            cache = HotCellCache(capacity=4)
            _, _, missing, tick = cache.lookup(*keys)
            assert missing.tolist() == [0]
            cache.insert(*keys, self._words([3]), self._words([entry]), tick)
            twice = tuple(np.repeat(word, 2) for word in keys)
            leaf_ids, entries, missing, _ = cache.lookup(*twice)
            assert missing.size == 0
            assert leaf_ids.tolist() == [3, 3]
            assert entries.tolist() == [entry, entry]

    def test_a_key_is_both_words(self):
        # Keys sharing one word are different keys: neither is served
        # the other's values.
        cache = HotCellCache(capacity=64)
        lat_bits = self._words([1, 1, 2])
        lng_bits = self._words([1, 2, 1])
        _, _, missing, tick = cache.lookup(lat_bits, lng_bits)
        cache.insert(
            lat_bits, lng_bits, self._words([10, 20, 30]),
            self._words([11, 21, 31]), tick,
        )
        leaf_ids, entries, missing, _ = cache.lookup(lat_bits, lng_bits)
        assert missing.size == 0
        assert leaf_ids.tolist() == [10, 20, 30]
        assert entries.tolist() == [11, 21, 31]
        _, _, missing, _ = cache.lookup(self._words([2]), self._words([2]))
        assert missing.tolist() == [0]

    def test_clear_empties_table_and_counters(self):
        cache = HotCellCache(capacity=4)
        keys = self._keys([1, 2])
        *_, tick = cache.lookup(*keys)
        cache.insert(*keys, self._words([1, 2]), self._words([10, 20]), tick)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == HotCellCache(capacity=4).stats()
        assert cache.lookup(*keys)[2].tolist() == [0, 1]

    def test_zero_capacity_disables_caching(self, index, points):
        lats, lngs = points
        cache = HotCellCache(capacity=0)
        store = CachedCellStore(index.store, cache)
        ids = index.cell_ids_for(lats[:100], lngs[:100])
        assert np.array_equal(store.probe(ids), index.store.probe(ids))
        assert cache.stats().requests == 0

    def test_cached_probe_identical_and_hits_on_repeat(self, index, points):
        lats, lngs = points
        histogram = index.super_covering.level_histogram()
        key_shift = key_shift_for_level(max(histogram))
        ids = index.cell_ids_for(lats, lngs)
        distinct = len(np.unique(ids >> np.uint64(key_shift)))
        cache = HotCellCache(capacity=16 * distinct)
        store = CachedCellStore(index.store, cache, key_shift=key_shift)
        assert np.array_equal(store.probe(ids), index.store.probe(ids))
        cold = cache.stats()
        assert cold.hits + cold.misses == len(ids)
        assert np.array_equal(store.probe(ids), index.store.probe(ids))
        warm = cache.stats()
        assert warm.hits + warm.misses == 2 * len(ids)
        # A stated floor, not zero misses: keys inserted by one batch can
        # lose their slot to each other (two hash choices, no relocation).
        warm_hit_rate = (warm.hits - cold.hits) / len(ids)
        assert warm_hit_rate >= 0.99
        assert warm.size <= cache.slots

    def test_hot_set_survives_cold_flood(self, index):
        # A hot key set probed in every batch, beside >= 4x capacity of
        # never-repeating cold keys per batch, hits 100 % once resident.
        capacity = 256
        cache = HotCellCache(capacity=capacity)
        generator = np.random.default_rng(5)
        hot = generator.integers(1, 1 << 62, 16, dtype=np.uint64)

        def probe_through(ids: np.ndarray) -> np.ndarray:
            # What a resolve does on a lookup the table performs; through
            # the service a 97 %-cold batch stands the table aside, which
            # tests/test_cache.py covers.
            keys = self._keys(ids)
            _, entries, missing, tick = self._sampled_lookup(cache, keys)
            missed = index.store.probe(ids[missing])
            entries[missing] = missed
            cache.insert(
                keys[0][missing], keys[1][missing], ids[missing], missed, tick
            )
            return entries

        probe_through(hot)  # its first batch...
        probe_through(hot)  # ...and a second chance for slot-conflict losers
        assert cache.stats().size == len(hot)
        for _ in range(20):
            cold = generator.integers(1, 1 << 62, 4 * capacity, dtype=np.uint64)
            batch = np.concatenate([hot, cold, hot])
            before = cache.stats()
            assert np.array_equal(probe_through(batch), index.store.probe(batch))
            after = cache.stats()
            assert after.hits - before.hits == 2 * len(hot)
            assert after.misses - before.misses == len(cold)
            assert after.size <= cache.slots
        assert cache.stats().evictions > 0

    def test_key_shift_validation(self):
        assert key_shift_for_level(30) == 1  # drops only the marker bit
        assert key_shift_for_level(20) == 21
        with pytest.raises(ValueError):
            key_shift_for_level(31)

    def test_key_shift_groups_by_ancestor(self):
        # Leaves under the same level-D ancestor share a key; leaves under
        # sibling ancestors do not.
        from repro.cells import CellId

        level = 20
        shift = key_shift_for_level(level)
        leaf = CellId.from_degrees(40.72, -74.0)
        ancestor = leaf.parent(level)
        children = [child.child(0) for child in ancestor.children()]
        keys = {child.id >> shift for child in children}
        assert keys == {ancestor.id >> shift}
        sibling = CellId(ancestor.id + 2 * (ancestor.id & -ancestor.id))
        assert (sibling.id >> shift) != (ancestor.id >> shift)

    def test_service_reports_cache_hit_rate(self, index, points):
        lats, lngs = points
        with JoinService(index, cache_cells=100_000) as svc:
            svc.join(lats, lngs)
            svc.join(lats, lngs)
            stats = svc.stats()
        assert 0.0 < stats.cache_hit_rate <= 1.0
        assert stats.cache["default"].hits > 0

    def test_zero_capacity_insert_is_noop(self):
        """Regression: capacity-0 puts inserted then immediately evicted,
        inflating the eviction counter (one put -> evictions=1)."""
        cache = HotCellCache(capacity=0)
        keys = self._keys([1, 2, 3])
        leaf_ids, entries, missing, tick = cache.lookup(*keys)
        assert leaf_ids.tolist() == entries.tolist() == [0, 0, 0]
        assert missing.tolist() == [0, 1, 2]
        cache.insert(*keys, self._words([1, 2, 3]), self._words([11, 22, 33]), tick)
        assert cache.lookup(*keys)[2].tolist() == [0, 1, 2]
        stats = cache.stats()
        assert stats.evictions == 0
        assert stats.size == 0
        assert stats.requests == 0
        assert len(cache) == 0

    def test_cached_store_copy_does_not_recurse(self, index):
        """Regression: copy.copy() of a CachedCellStore recursed forever —
        __getattr__ delegated 'store' before __dict__ was populated."""
        import copy

        store = CachedCellStore(index.store, HotCellCache(capacity=8))
        clone = copy.copy(store)
        assert clone.store is store.store
        assert clone.cache is store.cache
        assert clone.key_shift == store.key_shift
        ids = index.cell_ids_for(
            np.asarray([40.705, 40.71]), np.asarray([-74.0, -73.99])
        )
        assert np.array_equal(clone.probe(ids), index.store.probe(ids))

    def test_cached_store_getattr_guards(self, index):
        store = CachedCellStore(index.store, HotCellCache(capacity=8))
        # Wrapper-owned names and dunders never delegate: on a bare
        # instance (no __dict__ entries yet) they must raise instead of
        # recursing through self.store.
        bare = CachedCellStore.__new__(CachedCellStore)
        with pytest.raises(AttributeError):
            bare.store  # noqa: B018 - the lookup itself is the test
        with pytest.raises(AttributeError):
            getattr(bare, "__deepcopy__")
        with pytest.raises(AttributeError):
            getattr(store, "definitely_missing_attribute")
        # ...while real introspection still passes through to the store.
        assert store.size_bytes == index.store.size_bytes


def _repeated_points(seed: int, distinct: int, size: int):
    """``size`` points drawn from ``distinct`` exact coordinates around
    the grid polygons (inside, on borders, outside): a check-in stream."""
    generator = np.random.default_rng(seed)
    pool_lats = generator.uniform(40.67, 40.77, distinct)
    pool_lngs = generator.uniform(-74.03, -73.93, distinct)
    pick = generator.integers(0, distinct, size)
    return pool_lats[pick], pool_lngs[pick]


def _assert_same_join(served, direct):
    """Every ``JoinResult`` statistic, and the pairs when materialized."""
    assert served.num_points == direct.num_points
    assert np.array_equal(served.counts, direct.counts)
    for stat in (
        "num_pairs", "num_true_hit_pairs", "num_candidate_pairs",
        "num_pip_tests", "solely_true_hits",
    ):
        assert getattr(served, stat) == getattr(direct, stat), stat
    if served.pair_points is not None:
        assert sorted(zip(served.pair_points.tolist(), served.pair_polygons.tolist())) == (
            sorted(zip(direct.pair_points.tolist(), direct.pair_polygons.tolist()))
        )


#: A table far larger than any batch here.  Two slot choices and no
#: relocation lose a few keys of a batch to slot conflicts (the policy's
#: documented cost, ~1 % of 500 keys in 4,096 slots); at this size that
#: is improbable, so a test can count every hit.
ROOMY = 1 << 16


def _served(service, name, index, lats, lngs, exact, cell_ids=None):
    """One request through the service's envelope: the result and the
    leaf ids the dispatch returns."""
    return service._serve(
        name, index, lats, lngs, cell_ids, exact, True, span_meta={}
    )


class TestCoordinateKeyedTable:
    """The hot-cell table is keyed by a point's coordinates and consulted
    before the cell-id kernel."""

    @pytest.mark.parametrize("distinct", [50, 300])
    def test_repeated_batch_computes_no_cell_id(self, index, monkeypatch, distinct):
        """Only the points the table misses reach the cell-id kernel: on
        a repeated batch, none — or the few keys that lost both their
        slots to batch-mates (the policy's conflict misses)."""
        lats, lngs = _repeated_points(5, distinct, 2_000)
        computed: list[int] = []
        compute = index.cell_ids_for

        def counting(lats, lngs):
            computed.append(len(lats))
            return compute(lats, lngs)

        monkeypatch.setattr(index, "cell_ids_for", counting)
        direct = index.join(lats, lngs, exact=True)
        with JoinService(index, cache_cells=ROOMY) as svc:
            svc.join(lats, lngs, exact=True)
            assert sum(computed) == len(lats)  # a fresh table misses all
            computed.clear()
            warm = svc.join(lats, lngs, exact=True)
            stats = svc.cache().stats()
        assert sum(computed) == stats.misses - len(lats) <= 0.01 * len(lats)
        assert stats.hits == len(lats) - sum(computed)
        if distinct == 50:  # a hot set this small fits without a conflict
            assert sum(computed) == 0 and stats.size == distinct
        _assert_same_join(warm, direct)

    def test_door_matrix_matches_the_index_across_writes(self):
        """Warm, cold, declined, no table, morsels, a fan-out's brought
        ids and ``cell_ids=``: each door's results equal the index's own
        join, and its leaf ids the cell-id kernel's, before and after an
        insert, a delete and a compaction."""
        dyn = DynamicPolygonIndex.build(
            _grid_polygons()[:6], precision_meters=30.0, compact_threshold=None
        )
        lats, lngs = _repeated_points(7, 500, 3_000)
        want_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        generator = np.random.default_rng(8)
        writes = [
            lambda: dyn.insert(_grid_polygons()[7]),
            lambda: dyn.delete(2),
            dyn.compact,
        ]
        with (
            JoinService(dyn) as table,
            JoinService(dyn) as declining,
            JoinService(dyn, cache_cells=0) as no_table,
            JoinService(dyn, num_threads=2, morsel_size=1_000) as morsels,
            JoinService({"first": dyn, "second": dyn}) as fan_out,
        ):
            for write in [None, *writes]:
                if write is not None:
                    write()
                for exact in (False, True):
                    direct = dyn.join(lats, lngs, exact=exact, materialize=True)
                    doors = {}
                    doors["cold_or_warm"] = _served(table, "default", dyn, lats, lngs, exact)
                    hits = table.cache().stats().hits
                    doors["warm"] = _served(table, "default", dyn, lats, lngs, exact)
                    assert table.cache().stats().hits - hits >= 0.95 * len(lats)
                    doors["cell_ids"] = _served(
                        table, "default", dyn, lats, lngs, exact, cell_ids=want_ids
                    )
                    for _ in range(2):  # a cold flood stands the table aside
                        declining.join(
                            generator.uniform(-60.0, 60.0, 2_000),
                            generator.uniform(-170.0, 170.0, 2_000),
                        )
                    bypassed = declining.cache().stats().bypassed
                    doors["declined"] = _served(declining, "default", dyn, lats, lngs, exact)
                    assert declining.cache().stats().bypassed == bypassed + len(lats)
                    doors["no_table"] = _served(no_table, "default", dyn, lats, lngs, exact)
                    for _ in range(2):
                        doors["morsels"] = _served(morsels, "default", dyn, lats, lngs, exact)
                    for label, (result, ids) in doors.items():
                        _assert_same_join(result, direct)
                        assert np.array_equal(ids, want_ids), label
                    for _ in range(2):  # the second layer joins brought ids
                        layered = fan_out.join_layers(lats, lngs, exact=exact)
                    direct.pair_points = direct.pair_polygons = None
                    for result in layered.values():
                        _assert_same_join(result, direct)
                    assert fan_out.cache("second").stats().hits >= 0.95 * len(lats)

    def test_keys_are_bit_patterns(self):
        """``0.0`` and ``-0.0`` are two keys; each is served what the
        index computes for it, cold and warm."""
        index = PolygonIndex.build(
            [regular_polygon((0.0, 0.0), 0.01, 16)], precision_meters=30.0
        )
        signed = np.asarray([0.0, -0.0, 0.0, -0.0, 0.005, -0.005])
        lats = np.tile(signed, 6)
        lngs = np.repeat(signed, 6)
        want_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        direct = index.join(lats, lngs, exact=True, materialize=True)
        assert direct.num_pairs > 0
        with JoinService(index, cache_cells=ROOMY) as svc:
            for _ in range(2):
                result, ids = _served(svc, "default", index, lats, lngs, True)
                _assert_same_join(result, direct)
                assert np.array_equal(ids, want_ids)
            stats = svc.cache().stats()
        assert stats.size == 16  # 4 x 4 distinct bit patterns
        assert stats.hits == len(lats)


class TestLayerRouter:
    def test_single_layer_is_default(self, index):
        router = LayerRouter({"only": index})
        assert router.resolve() == ("only", index)

    def test_multi_layer_requires_explicit_default(self, index, second_index):
        router = LayerRouter({"a": index, "b": second_index})
        with pytest.raises(KeyError):
            router.resolve()
        assert router.resolve("b") == ("b", second_index)

    def test_select_all_and_subset(self, index, second_index):
        router = LayerRouter({"a": index, "b": second_index})
        assert [name for name, _ in router.select()] == ["a", "b"]
        assert [name for name, _ in router.select(["b"])] == ["b"]

    def test_duplicate_and_unknown_layers(self, index):
        router = LayerRouter({"a": index})
        with pytest.raises(ValueError):
            router.add("a", index)
        with pytest.raises(KeyError):
            router.resolve("missing")

    def test_add_layer_on_live_service(self, index, second_index, points):
        lats, lngs = points
        with JoinService({"zones": index}) as svc:
            svc.add_layer("extra", second_index)
            assert "extra" in svc.layers
            served = svc.join(lats, lngs, layer="extra")
        assert np.array_equal(served.counts, second_index.join(lats, lngs).counts)


class TestMorselExecutor:
    def test_covers_every_range_in_order(self):
        with MorselExecutor(num_threads=4, morsel_size=10) as executor:
            ranges = executor.map_morsels(95, lambda lo, hi: (lo, hi))
        assert ranges[0] == (0, 10)
        assert ranges[-1] == (90, 95)
        assert sum(hi - lo for lo, hi in ranges) == 95

    def test_single_morsel_runs_inline(self):
        calls = []
        with MorselExecutor(num_threads=2, morsel_size=100) as executor:
            assert executor.map_morsels(40, lambda lo, hi: calls.append((lo, hi))) == [None]
        assert calls == [(0, 40)]

    def test_empty_input(self):
        with MorselExecutor(num_threads=2) as executor:
            assert executor.map_morsels(0, lambda lo, hi: 1) == []

    def test_work_actually_runs_on_multiple_threads(self):
        seen = set()
        barrier = threading.Barrier(2, timeout=10)

        def work(lo, hi):
            barrier.wait()  # both threads must be inside work at once
            seen.add(threading.get_ident())

        with MorselExecutor(num_threads=2, morsel_size=5) as executor:
            executor.map_morsels(10, work)
        assert len(seen) == 2


class TestServiceStats:
    def test_latency_and_throughput_snapshot(self, index, points):
        lats, lngs = points
        with JoinService(index) as svc:
            for lo in range(0, 4000, 500):
                svc.join(lats[lo : lo + 500], lngs[lo : lo + 500])
            stats = svc.stats()
        assert stats.requests == 8
        assert stats.points == 4000
        assert stats.dispatches == 8
        assert stats.mean_batch_size == 500
        assert stats.p50_ms > 0
        assert stats.p99_ms >= stats.p50_ms
        assert stats.throughput_pps > 0
        assert stats.busy_seconds > 0

    def test_fan_out_counts_as_one_request(self, index, second_index, points):
        lats, lngs = points
        with JoinService({"a": index, "b": second_index}) as svc:
            svc.join_layers(lats[:100], lngs[:100])
            stats = svc.stats()
        assert stats.requests == 1  # one client operation...
        assert stats.dispatches == 2  # ...dispatched once per layer
        assert stats.points == 200

    def test_empty_snapshot(self, index):
        with JoinService(index) as svc:
            stats = svc.stats()
        assert stats.requests == 0
        assert stats.p50_ms == 0.0
        assert stats.cache_hit_rate == 0.0


class TestSnapshotSwap:
    """Zero-downtime layer swap: versioned snapshots, version-keyed caches."""

    def test_swap_replaces_layer_and_returns_old(self, index, second_index, points):
        lats, lngs = points
        with JoinService({"zones": index}) as svc:
            before = svc.join(lats, lngs, layer="zones")
            old = svc.swap_layer("zones", second_index)
            after = svc.join(lats, lngs, layer="zones")
        assert old is index
        assert np.array_equal(before.counts, index.join(lats, lngs).counts)
        assert np.array_equal(after.counts, second_index.join(lats, lngs).counts)

    def test_swap_to_stale_version_refused(self):
        # Built in order, so `newer` is guaranteed the higher version.
        older = PolygonIndex.build([regular_polygon((-74.0, 40.70), 0.01, 8)])
        newer = PolygonIndex.build([regular_polygon((-73.9, 40.80), 0.01, 8)])
        assert older.version < newer.version
        with JoinService({"zones": newer}) as svc:
            with pytest.raises(ValueError):
                svc.swap_layer("zones", older)

    def test_swap_unknown_layer_raises(self, index, second_index):
        with JoinService({"zones": index}) as svc:
            with pytest.raises(KeyError):
                svc.swap_layer("missing", second_index)

    def test_router_rejects_non_index_registrations(self):
        router = LayerRouter()
        with pytest.raises(TypeError):
            router.add("bogus", object())

    def test_swap_invalidates_hot_cell_cache(self):
        # Same probe point, different answers before/after the swap: a
        # stale cache entry from the old version would leak the old answer.
        target = (40.70, -74.0)
        inside = PolygonIndex.build([regular_polygon((-74.0, 40.70), 0.01, 12)])
        outside = PolygonIndex.build([regular_polygon((-73.90, 40.80), 0.01, 12)])
        with JoinService(inside, cache_cells=1024) as svc:
            for _ in range(4):  # populate the cache for the target cell
                assert svc.lookup(*target) == [0]
            svc.swap_layer("default", outside)
            assert svc.lookup(*target) == []
            assert svc.stats().layers["default"].version == outside.version

    def test_swap_under_concurrent_lookups_never_serves_old_version(self):
        # The acceptance criterion: once the swap has returned, no lookup
        # started afterwards may return a reference from the old version.
        inside = PolygonIndex.build([regular_polygon((-74.0, 40.70), 0.01, 12)])
        outside = PolygonIndex.build([regular_polygon((-73.90, 40.80), 0.01, 12)])
        valid = ([0], [])  # pre-swap answer, post-swap answer
        swapped = threading.Event()
        failures: list[tuple[bool, list]] = []

        def client(svc):
            for _ in range(200):
                was_swapped = swapped.is_set()
                result = svc.lookup(40.70, -74.0)
                if result not in valid:
                    failures.append((was_swapped, result))
                elif was_swapped and result != []:
                    failures.append((was_swapped, result))

        with JoinService(inside, cache_cells=1024, max_wait_ms=0.2) as svc:
            threads = [
                threading.Thread(target=client, args=(svc,)) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            svc.swap_layer("default", outside)
            swapped.set()
            for thread in threads:
                thread.join()
        assert not failures

    def test_mutating_dynamic_layer_never_serves_stale_cache(self):
        from repro.core import DynamicPolygonIndex

        dyn = DynamicPolygonIndex.build(
            [regular_polygon((-74.0, 40.70), 0.01, 12)], compact_threshold=None
        )
        with JoinService(dyn, cache_cells=1024) as svc:
            for _ in range(4):
                assert svc.lookup(40.70, -74.0) == [0]
            pid = dyn.insert(regular_polygon((-74.0, 40.70), 0.008, 10))
            assert svc.lookup(40.70, -74.0) == [0, pid]
            dyn.delete(0)
            assert svc.lookup(40.70, -74.0) == [pid]
            stats = svc.stats()
        assert stats.layers["default"].version == dyn.version
        assert stats.layers["default"].delta_size == 2

    def test_dynamic_layer_batch_join_matches_direct(self, points):
        from repro.core import DynamicPolygonIndex

        lats, lngs = points
        dyn = DynamicPolygonIndex.build(
            _grid_polygons(), precision_meters=30.0, compact_threshold=None
        )
        dyn.insert(regular_polygon((-73.95, 40.75), 0.012, 16))
        dyn.delete(0)
        with JoinService(dyn) as svc:
            served = svc.join(lats, lngs, exact=True)
        direct = dyn.join(lats, lngs, exact=True)
        assert np.array_equal(served.counts, direct.counts)

    def test_cache_accessor_after_dynamic_mutation(self):
        from repro.core import DynamicPolygonIndex

        dyn = DynamicPolygonIndex.build(
            [regular_polygon((-74.0, 40.70), 0.01, 12)], compact_threshold=None
        )
        with JoinService(dyn, cache_cells=64) as svc:
            assert len(svc.cache()) == 0
            dyn.insert(regular_polygon((-73.95, 40.74), 0.01, 12))
            # no dispatch between the mutation and the accessor:
            assert svc.cache().capacity == 64

    def test_stats_while_layers_are_added(self, index, second_index):
        stop = threading.Event()
        errors: list[Exception] = []

        def poll(svc):
            while not stop.is_set():
                try:
                    svc.stats()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        with JoinService({"base": index}) as svc:
            thread = threading.Thread(target=poll, args=(svc,))
            thread.start()
            try:
                for k in range(50):
                    svc.add_layer(f"layer-{k}", second_index)
            finally:
                stop.set()
                thread.join()
        assert not errors


class TestLayerRouterConcurrency:
    """Readers must survive concurrent add/swap (copy-on-write registry)."""

    def test_reader_survives_interleaved_add(self, index, second_index):
        """Deterministic interleaving: an ``add`` lands mid-iteration.

        The instrumented registry performs the concurrent ``add`` the
        moment a reader starts iterating it — exactly the interleaving a
        ``join_layers`` fan-out racing an ``add_layer`` hits.  With
        in-place mutation this raises ``RuntimeError: dictionary changed
        size during iteration``; with copy-on-write publication the
        reader's snapshot is immune.
        """
        router = LayerRouter({"base": index})

        def racing_iter(plain_iter):
            first = True
            for key in plain_iter:
                yield key
                if first:
                    first = False
                    router.add("added-mid-iteration", second_index)

        class RacingDict(dict):
            def __iter__(self):
                return racing_iter(super().__iter__())

        router._layers = RacingDict(router._layers)
        names = router.names  # tuple(...) drives the racing iterator
        assert "base" in names
        assert "added-mid-iteration" in router

    def test_readers_survive_add_stress(self, index, second_index):
        router = LayerRouter({"base": index})
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            while not stop.is_set():
                try:
                    router.names
                    router.resolve("base")
                    router.select(None)
                    list(router.items())
                    router.default
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for k in range(200):
                router.add(f"layer-{k}", second_index)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(router) == 201

    def test_select_resolves_one_snapshot(self, index, second_index):
        router = LayerRouter({"a": index, "b": second_index})
        routed = dict(router.select(["a", "b"]))
        assert routed["a"] is index
        assert routed["b"] is second_index


class TestMorselExecutorFailFast:
    def test_failing_worker_stops_remaining_morsels(self):
        """Workers must stop claiming morsels once one of them fails."""
        calls: list[int] = []
        calls_lock = threading.Lock()

        def work(lo, hi):
            with calls_lock:
                calls.append(lo)
            if lo == 0:
                raise ValueError("boom at morsel 0")
            time.sleep(0.01)
            return hi

        with MorselExecutor(num_threads=2, morsel_size=10) as executor:
            with pytest.raises(ValueError, match="boom at morsel 0"):
                executor.map_morsels(200, work)  # 20 morsels
        # Without fail-fast the surviving worker grinds through all 20
        # morsels; with the shared flag it stops after at most the ones
        # it had already claimed when the failure landed.
        assert len(calls) < 20
        assert len(calls) <= 5

    def test_error_on_single_inline_morsel_still_raises(self):
        def work(lo, hi):
            raise RuntimeError("inline failure")

        with MorselExecutor(num_threads=2, morsel_size=100) as executor:
            with pytest.raises(RuntimeError, match="inline failure"):
                executor.map_morsels(50, work)

    def test_pool_reusable_after_failure(self):
        with MorselExecutor(num_threads=2, morsel_size=5) as executor:
            with pytest.raises(ValueError):
                executor.map_morsels(20, lambda lo, hi: (_ for _ in ()).throw(ValueError()))
            assert executor.map_morsels(20, lambda lo, hi: hi - lo) == [5, 5, 5, 5]


class TestLatencyRecorderLocking:
    def test_record_not_blocked_during_snapshot(self, monkeypatch):
        """The numpy window crunching must run outside the recorder lock.

        Slows down the snapshot's first ndarray conversion (the
        whole-window ``np.asarray``) and asserts a concurrent ``record``
        still completes while the snapshot is mid-conversion — it blocks
        on the recorder lock if the conversion runs under it.
        """
        import repro.serve.stats as stats_mod

        recorder = LatencyRecorder(window=256)
        for _ in range(64):
            recorder.record(requests=1, points=1, pairs=0, seconds=0.001)

        entered = threading.Event()
        release = threading.Event()
        armed = [True]  # only the first conversion (the window) is slowed
        real_asarray = np.asarray

        def slow_asarray(obj, *args, **kwargs):
            if armed[0]:
                armed[0] = False
                entered.set()
                assert release.wait(5), "test deadlock: release never set"
            return real_asarray(obj, *args, **kwargs)

        monkeypatch.setattr(stats_mod.np, "asarray", slow_asarray)
        snapshot_thread = threading.Thread(target=recorder.snapshot)
        snapshot_thread.start()
        try:
            assert entered.wait(5), "snapshot never reached the percentile"
            record_thread = threading.Thread(
                target=recorder.record,
                kwargs=dict(requests=1, points=1, pairs=0, seconds=0.002),
            )
            record_thread.start()
            record_thread.join(timeout=1.0)
            blocked = record_thread.is_alive()
        finally:
            release.set()
            snapshot_thread.join(timeout=5)
            if "record_thread" in locals():
                record_thread.join(timeout=5)
        assert not blocked, "record() stalled while snapshot held the lock"

    def test_snapshot_percentiles_match_numpy(self):
        recorder = LatencyRecorder(window=64)
        rng = np.random.default_rng(5)
        seconds = rng.uniform(0.001, 0.01, 100)
        for s in seconds:
            recorder.record(requests=1, points=1, pairs=0, seconds=float(s))
        snap = recorder.snapshot()
        window = seconds[-64:]
        assert snap.p50_ms == pytest.approx(float(np.percentile(window, 50) * 1e3))
        assert snap.p99_ms == pytest.approx(float(np.percentile(window, 99) * 1e3))
        assert snap.mean_ms == pytest.approx(float(window.mean() * 1e3))

    def test_concurrent_record_and_snapshot_totals(self):
        """Hammer record() from many threads against live snapshots.

        Every snapshot taken mid-flight must be internally consistent
        (bounded window, totals that never exceed what was recorded) and
        the final snapshot must account for every record exactly.
        """
        recorder = LatencyRecorder(window=128)
        num_threads, per_thread = 8, 500
        start = threading.Barrier(num_threads + 1)

        def writer():
            start.wait()
            for _ in range(per_thread):
                recorder.record(requests=1, points=2, pairs=3, seconds=1e-6)

        threads = [threading.Thread(target=writer) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        start.wait()
        total = num_threads * per_thread
        for _ in range(50):
            snap = recorder.snapshot()
            assert snap.window_samples <= snap.latency_window == 128
            assert snap.dispatches <= total
            assert snap.points == 2 * snap.dispatches
        for thread in threads:
            thread.join()
        final = recorder.snapshot()
        assert final.requests == total
        assert final.dispatches == total
        assert final.points == 2 * total
        assert final.pairs == 3 * total
        assert final.busy_seconds == pytest.approx(total * 1e-6)
        assert final.window_samples == 128


class TestLatencyRecorderWindow:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            LatencyRecorder(window=0)

    def test_window_surfaced_in_snapshot(self):
        recorder = LatencyRecorder(window=16)
        assert recorder.window == 16
        for _ in range(5):
            recorder.record(requests=1, points=1, pairs=0, seconds=1e-4)
        snap = recorder.snapshot()
        assert snap.latency_window == 16
        assert snap.window_samples == 5
        for _ in range(20):
            recorder.record(requests=1, points=1, pairs=0, seconds=1e-4)
        assert recorder.snapshot().window_samples == 16  # saturated

    def test_service_latency_window_configurable(self, index, points):
        lats, lngs = points
        with JoinService(index, latency_window=4) as svc:
            for lo in range(0, 3500, 500):
                svc.join(lats[lo : lo + 500], lngs[lo : lo + 500])
            stats = svc.stats()
        assert stats.latency_window == 4
        assert stats.window_samples == 4  # window wrapped: 7 dispatches
        assert stats.dispatches == 7  # ...but totals keep the lifetime

    def test_wall_clock_throughput(self):
        recorder = LatencyRecorder(window=8)
        recorder.record(requests=1, points=10_000, pairs=0, seconds=1e-4)
        time.sleep(0.05)
        snap = recorder.snapshot()
        # Busy throughput divides by summed dispatch time (1e-4 s) and so
        # wildly overstates the observed rate; wall throughput divides by
        # start->snapshot elapsed time.
        assert snap.wall_seconds >= 0.05
        assert snap.throughput_wall_pps == pytest.approx(
            snap.points / snap.wall_seconds
        )
        assert snap.throughput_wall_pps < snap.throughput_pps


class TestStatsNewestGeneration:
    def test_stale_generation_never_masks_live_stats(self, index, points):
        """One generation per layer, the newest: a laggard dispatch that
        resolved the layer before a swap joins through a private table,
        and ``stats()`` keeps reporting the live generation.

        The real sequence: join, ``swap_layer``, live traffic, then a
        dispatch still holding the pre-swap index.
        """
        lats, lngs = points[0][:2000], points[1][:2000]
        fresh = PolygonIndex.build(_grid_polygons(), precision_meters=30.0)
        assert fresh.version > index.version
        with JoinService(index, cache_cells=7) as svc:
            svc.join(lats, lngs)
            retired = svc.cache()
            svc.swap_layer("default", fresh)
            svc.join(lats, lngs)  # the live cache sees traffic
            live = svc.cache()
            assert live is not retired
            before = svc.stats().cache["default"]
            laggard, _ = svc._dispatch(
                "default", index, index.cell_ids_for(lats, lngs), lats, lngs,
                exact=False, materialize=False,
            )
            after = svc.stats().cache["default"]
            assert svc.cache() is live  # the laggard's table is not registered
        assert np.array_equal(laggard.counts, index.join(lats, lngs).counts)
        assert after == before == live.stats()
        assert after.requests > 0 and after.capacity == live.capacity
