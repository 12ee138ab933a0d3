"""Property and stress tests for the array-native hot-cell cache.

The load-bearing guarantee of :class:`~repro.serve.cache.CachedCellStore`
is that a cached probe equals a direct ``store.probe`` element-wise,
whatever the key stream, the table size, or the interleaving of threads
sharing the table — the replacement policy may only ever cost hits.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinService
from repro.core import DynamicPolygonIndex, PolygonIndex, attach_index, pack_index
from repro.core.act import AdaptiveCellTrie
from repro.core.dynamic import OverlayCellStore
from repro.geo.polygon import regular_polygon
from repro.obs import MetricsRegistry, Observability
from repro.obs.export import render_prometheus
from repro.serve import ShardedJoinService
from repro.serve.cache import _DECLINE_FIRST, _DECLINE_MAX, CachedCellStore, HotCellCache

POLYGONS = [
    regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
    for gx in range(2)
    for gy in range(2)
]
KEY_SHIFTS = (0, 1, 21)


@pytest.fixture(scope="module")
def stores():
    """One store of each served kind, and leaf ids to probe them with."""
    index = PolygonIndex.build(POLYGONS, precision_meters=60.0)
    dynamic = DynamicPolygonIndex.build(
        POLYGONS[:3], precision_meters=60.0, compact_threshold=None
    )
    dynamic.insert(POLYGONS[3])
    by_kind = {
        "act": index.store,
        "attached": attach_index(pack_index(index)).store,
        "overlay": dynamic.store,
    }
    assert isinstance(by_kind["act"], AdaptiveCellTrie)
    assert isinstance(by_kind["attached"], AdaptiveCellTrie)
    assert isinstance(by_kind["overlay"], OverlayCellStore)
    # Inside, on the border of, and well outside the polygons: true-hit,
    # candidate and sentinel (0) entries all occur.
    generator = np.random.default_rng(17)
    lngs = generator.uniform(-74.03, -73.95, 4_000)
    lats = generator.uniform(40.68, 40.74, 4_000)
    return by_kind, index.cell_ids_for(lats, lngs)


def id_pool(store, leaf_ids: np.ndarray, key_shift: int, size: int) -> np.ndarray:
    """``size`` leaf ids no two of which share a cache key.

    Whether two *different* ids may share a key is the soundness question
    of ``key_shift_for_level`` (tested in ``test_adaptive.py``); here any
    shift must be safe, so each key is represented by one id.  Half the
    pool is drawn from ids the store misses, so sentinel entries are
    cached too.
    """
    _, first = np.unique(leaf_ids >> np.uint64(key_shift), return_index=True)
    distinct = leaf_ids[np.sort(first)]
    missed = store.probe(distinct) == 0
    half = size // 2
    pool = np.concatenate([distinct[missed][:half], distinct[~missed][:half]])
    assert len(pool) == size
    return pool


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["act", "attached", "overlay"]),
    capacity=st.integers(1, 8),
    key_shift=st.sampled_from(KEY_SHIFTS),
    batches=st.lists(
        st.lists(st.integers(0, 23), max_size=40), min_size=1, max_size=10
    ),
)
def test_cached_probe_equals_direct_probe(stores, kind, capacity, key_shift, batches):
    by_kind, leaf_ids = stores
    store = by_kind[kind]
    pool = id_pool(store, leaf_ids, key_shift, 24)
    cache = HotCellCache(capacity)
    cached = CachedCellStore(store, cache, key_shift=key_shift)
    probed = 0
    for batch in batches:
        ids = pool[np.asarray(batch, dtype=np.int64)]
        got = cached.probe(ids)
        assert got.dtype == np.uint64
        assert np.array_equal(got, store.probe(ids))
        probed += len(ids)
        stats = cache.stats()
        assert stats.hits + stats.misses + stats.bypassed == probed
        assert stats.size == len(cache) <= cache.slots


def test_repeats_of_a_resident_key_all_hit(stores):
    by_kind, leaf_ids = stores
    store = by_kind["act"]
    cached = CachedCellStore(store, HotCellCache(capacity=4))
    ids = np.repeat(leaf_ids[:1], 50)
    assert np.array_equal(cached.probe(ids), store.probe(ids))
    assert np.array_equal(cached.probe(ids), store.probe(ids))
    stats = cached.cache.stats()
    assert (stats.hits, stats.misses, stats.size) == (50, 50, 1)


def test_threads_sharing_one_cache_stay_bit_identical(stores):
    """Four threads hammer one small table (client threads calling one
    service's ``join`` at once share their layer's table): every probe
    stays equal to the direct one, and no counter update is lost.  Also
    run under ``REPRO_SANITIZE=1`` in CI."""
    by_kind, leaf_ids = stores
    store = by_kind["act"]
    pool = id_pool(store, leaf_ids, 0, 400)
    expected = store.probe(pool)
    cache = HotCellCache(capacity=64)  # far fewer slots than keys in flight
    cached = CachedCellStore(store, cache)
    num_threads, rounds, batch = 4, 150, 256
    failures: list[str] = []

    def worker(seed: int) -> None:
        generator = np.random.default_rng(seed)
        for _ in range(rounds):
            # Skewed draws: a shared hot head plus a long cold tail.
            draws = generator.zipf(1.3, batch) % len(pool)
            got = cached.probe(pool[draws])
            if not np.array_equal(got, expected[draws]):
                failures.append(f"thread {seed}: cached probe diverged")
                return

    threads = [
        threading.Thread(target=worker, args=(seed,), daemon=True)
        for seed in range(num_threads)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    stats = cache.stats()
    assert stats.hits + stats.misses + stats.bypassed == num_threads * rounds * batch
    assert stats.hits > 0 and stats.evictions > 0
    assert stats.size <= cache.slots


# ----------------------------------------------------------------------
# Standing aside: the table declines lookups while the stream misses
# ----------------------------------------------------------------------


def cold_batch(generator: np.random.Generator, size: int = 64) -> np.ndarray:
    """Leaf ids that never repeat: the stream no table can serve."""
    return generator.integers(1, 1 << 62, size, dtype=np.uint64) | np.uint64(1)


def probe_and_classify(cached: CachedCellStore, ids: np.ndarray) -> str:
    """Probe ``ids`` (checking the result) and say what the table did."""
    cache = cached.cache
    before = cache.stats()
    assert np.array_equal(cached.probe(ids), cached.store.probe(ids))
    after = cache.stats()
    looked_up = after.requests - before.requests
    bypassed = after.bypassed - before.bypassed
    assert sorted((looked_up, bypassed)) == [0, len(ids)]
    return "declined" if bypassed else "looked up"


#: The declines between samples of a stream that keeps missing: doubled
#: (plus one) per missing sample, up to the cap.
BACK_OFF = [15, 31, 63, 127, 255, 255]


def declines_then_samples(counts) -> list[str]:
    return [
        outcome
        for count in counts
        for outcome in ["declined"] * count + ["looked up"]
    ]


def test_cold_stream_backs_off_from_15_to_255_declined_lookups(stores):
    store = stores[0]["act"]
    cached = CachedCellStore(store, HotCellCache(capacity=256))
    generator = np.random.default_rng(3)
    batch = 8
    seen = [
        probe_and_classify(cached, cold_batch(generator, batch))
        for _ in range(2 + sum(BACK_OFF) + len(BACK_OFF))
    ]
    # The first lookup is exempt and the second triggers; every sample
    # that misses again doubles the declines, up to 255.
    assert (_DECLINE_FIRST, _DECLINE_MAX) == (BACK_OFF[0], BACK_OFF[-1])
    assert seen == ["looked up", "looked up"] + declines_then_samples(BACK_OFF)
    stats = cached.cache.stats()
    assert stats.hits == 0 and stats.misses == (2 + len(BACK_OFF)) * batch
    assert stats.bypassed == sum(BACK_OFF) * batch
    assert stats.hit_rate == 0.0  # of the keys looked up; bypassed excluded


def test_stream_that_turns_hot_is_back_on_the_table_within_two_samples(stores):
    store, leaf_ids = stores[0]["act"], stores[1]
    cached = CachedCellStore(store, HotCellCache(capacity=256))
    generator = np.random.default_rng(4)
    # Lookups 1, 2, 18 and 50 sample the cold stream; the last declines 63.
    cold = [probe_and_classify(cached, cold_batch(generator)) for _ in range(50)]
    assert cold == ["looked up", "looked up"] + declines_then_samples(BACK_OFF[:2])
    hot = id_pool(store, leaf_ids, 0, 48)
    turned = [probe_and_classify(cached, hot) for _ in range(63 + 1 + 127 + 1 + 20)]
    # The first sample misses (and caches) the hot keys, and backs off
    # once more; the next one hits, and from there the table serves
    # every batch.
    assert turned[: 63 + 1 + 127 + 1] == declines_then_samples([63, 127])
    assert turned[-20:] == ["looked up"] * 20
    before = cached.cache.stats()
    assert [probe_and_classify(cached, hot) for _ in range(20)] == ["looked up"] * 20
    after = cached.cache.stats()
    assert after.hits - before.hits == 20 * len(hot)
    assert after.misses == before.misses
    # A sample that hit reset the back-off: a stream that turns cold
    # again is declined 15 lookups, not 255.
    again = [probe_and_classify(cached, cold_batch(generator)) for _ in range(2 + 15)]
    assert again == ["looked up"] + declines_then_samples([15])


def test_service_looks_up_8_of_1000_batches_of_a_stream_that_never_repeats():
    index = PolygonIndex.build(POLYGONS, precision_meters=60.0)
    generator = np.random.default_rng(8)
    batch = 16
    with JoinService(index) as service:
        for _ in range(1000):
            # Uniform over a box ~1000x the polygons' area: no key repeats.
            service.join(
                generator.uniform(40.0, 41.4, batch), generator.uniform(-74.7, -73.3, batch)
            )
        cache = service.stats().cache["default"]
    # Lookups 1, 2, 18, 50, 114, 242, 498 and 754; 15 in 16 would be 64.
    assert cache.requests <= 8 * batch
    assert cache.requests + cache.bypassed == 1000 * batch
    assert cache.hits == 0


def test_first_lookup_of_a_table_never_stands_it_aside():
    cache = HotCellCache(capacity=64)
    keys = np.arange(1, 33, dtype=np.uint64)
    no_word = np.zeros_like(keys)
    for _ in range(3):  # a fresh table, and the same table cleared
        _, _, missing, tick = cache.lookup(keys, no_word)
        assert len(missing) == len(keys)  # an empty table misses any stream
        cache.insert(keys, no_word, keys, keys, tick)
        looked = cache.lookup(keys, no_word)
        assert looked is not None and looked[2].size == 0
        assert cache.stats().bypassed == 0
        cache.clear()


def test_clear_resets_the_back_off(stores):
    cached = CachedCellStore(stores[0]["act"], HotCellCache(capacity=256))
    generator = np.random.default_rng(5)
    cold = [probe_and_classify(cached, cold_batch(generator, 8)) for _ in range(2 + 15 + 1)]
    # The sample after the first 15 declines missed: 31 would be next.
    assert cold == ["looked up", "looked up"] + declines_then_samples([15])
    cached.cache.clear()
    again = [probe_and_classify(cached, cold_batch(generator, 8)) for _ in range(2 + 15 + 1)]
    assert again == cold


def test_declined_lookup_emits_no_cache_lookup_span(stores):
    store = stores[0]["act"]
    obs = Observability()
    cached = CachedCellStore(store, HotCellCache(capacity=256), tracer=obs.tracer)
    generator = np.random.default_rng(5)
    outcomes = []
    for _ in range(4):
        with obs.tracer.dispatch("dispatch"):
            outcomes.append(probe_and_classify(cached, cold_batch(generator)))
    assert outcomes == ["looked up", "looked up", "declined", "declined"]
    lookups = [r for r in obs.tracer.spans() if r.name == "cache_lookup"]
    assert len(lookups) == 2
    assert all(r.meta == {"keys": 64, "misses": 64} for r in lookups)


def test_bypassed_is_reported_by_every_stats_surface():
    index = PolygonIndex.build(POLYGONS, precision_meters=60.0)
    generator = np.random.default_rng(6)

    def cold_points():
        # Uniform over a box ~1000x the polygons' area: no key repeats.
        return generator.uniform(40.0, 41.4, 500), generator.uniform(-74.7, -73.3, 500)

    with JoinService(index) as service:
        for _ in range(6):
            service.join(*cold_points())
        stats = service.stats()
    cache = stats.cache["default"]
    assert cache.bypassed == 4 * 500 and cache.requests == 2 * 500
    assert stats.to_dict()["cache"]["default"]["bypassed"] == cache.bypassed
    assert f'service_cache_bypassed{{layer="default"}} {cache.bypassed}' in (
        render_prometheus(MetricsRegistry(), stats=stats)
    )

    with ShardedJoinService(index, num_shards=2, backend="inline") as sharded:
        for _ in range(6):
            sharded.join(*cold_points())
        merged = sharded.stats()
    per_shard = [shard.stats.cache["default"].bypassed for shard in merged.shards]
    assert merged.cache["default"].bypassed == sum(per_shard) > 0


# ----------------------------------------------------------------------
# Sizing: ``capacity`` sizes the table, which holds up to ``slots`` keys
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_keys, max_miss_share", [(2_048, 0.02), (4_096, 0.05)])
def test_table_holds_its_capacity(seed, num_keys, max_miss_share):
    """One batch of distinct keys written back, then looked up again:
    with four slots per unit of capacity, slot conflicts between keys of
    one batch lose only a few of them."""
    cache = HotCellCache(capacity=4_096)
    assert cache.slots == 16_384
    generator = np.random.default_rng(seed)
    lat_bits, lng_bits = generator.integers(0, 1 << 63, (2, num_keys), dtype=np.uint64)
    assert len(np.unique(lat_bits)) == num_keys
    _, _, missing, tick = cache.lookup(lat_bits, lng_bits)
    cache.insert(lat_bits, lng_bits, lat_bits, lng_bits, tick)
    leaf_ids, entries, missing, _ = cache.lookup(lat_bits, lng_bits)
    assert len(missing) <= max_miss_share * num_keys
    found = np.ones(num_keys, dtype=bool)
    found[missing] = False
    assert np.array_equal(leaf_ids[found], lat_bits[found])
    assert np.array_equal(entries[found], lng_bits[found])


@pytest.mark.parametrize("capacity, slots", [(0, 0), (1, 4), (7, 32), (8, 32), (4_096, 16_384)])
def test_four_slots_per_unit_of_capacity(capacity, slots):
    assert HotCellCache(capacity).slots == slots


def test_a_flood_of_distinct_keys_fills_slots_not_capacity():
    """``capacity`` is no cap on ``size``: a missing key takes any empty
    slot, so a stream of distinct keys fills the table past it."""
    cache = HotCellCache(64)
    generator = np.random.default_rng(3)
    for _ in range(400):
        lat_bits, lng_bits = generator.integers(0, 1 << 63, (2, 64), dtype=np.uint64)
        looked_up = cache.lookup(lat_bits, lng_bits)
        if looked_up is None:  # standing aside
            continue
        _, _, missing, tick = looked_up
        cache.insert(
            lat_bits[missing], lng_bits[missing], lat_bits[missing], lng_bits[missing], tick
        )
    stats = cache.stats()
    assert stats.capacity == 64 and cache.slots == 256
    assert stats.capacity < stats.size <= cache.slots
    assert stats.evictions > 0


# ----------------------------------------------------------------------
# Taking over: the next generation starts from the keys this one used
# ----------------------------------------------------------------------


def fill(cache: HotCellCache, keys: np.ndarray, values: np.ndarray) -> None:
    """Look ``keys`` up and write the misses back with ``values``."""
    no_word = np.zeros_like(keys)
    _, _, missing, tick = cache.lookup(keys, no_word)
    cache.insert(keys[missing], no_word[missing], keys[missing], values[missing], tick)


def resident(cache: HotCellCache, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys ``cache`` holds (ascending) and their values, read
    without a lookup (which would touch them)."""
    held = np.isin(cache._key_lats, keys) & (cache._ticks > 0)
    order = np.argsort(cache._key_lats[held])
    return cache._key_lats[held][order], cache._values[held][order]


def test_take_over_carries_what_the_generation_used_reprobed(stores):
    """Keys, leaf ids and ticks carry over; every value is the new
    store's row, whatever the retiring table held; a key the retiring
    generation never touched is left behind."""
    store, leaf_ids = stores[0]["act"], stores[1]
    pool = np.unique(id_pool(store, leaf_ids, 0, 64))
    used, unused = pool[:32], pool[32:]
    wrong = np.full(len(pool), 12345, dtype=np.uint64)  # what a stale store held
    first = HotCellCache(capacity=1_024)  # roomy: no slot conflict
    fill(first, pool, wrong)
    second = HotCellCache(capacity=1_024)
    second.take_over(first, store)
    keys, rows = resident(second, pool)
    assert np.array_equal(keys, pool)
    assert np.array_equal(rows, store.probe_rows(pool))
    assert second.stats().requests == 0  # counters are per generation
    assert second.stats().size == len(pool)
    # The second generation reads only `used`: they hit, and only they
    # carry on to the third.
    _, hit_rows, missing, _ = second.lookup(used, np.zeros_like(used))
    assert missing.size == 0 and np.array_equal(hit_rows, store.probe_rows(used))
    third = HotCellCache(capacity=1_024)
    third.take_over(second, store)
    keys, _ = resident(third, pool)
    assert np.array_equal(keys, used)
    assert not np.isin(unused, keys).any()
    # Ticks continue: the carried keys are older than any new write.
    assert third._tick == third._born == second._tick


def test_standing_aside_table_has_an_empty_successor(stores):
    store, leaf_ids = stores[0]["act"], stores[1]
    hot = id_pool(store, leaf_ids, 0, 32)
    retiring = HotCellCache(capacity=256)
    fill(retiring, hot, store.probe(hot))
    generator = np.random.default_rng(7)
    cold = cold_batch(generator)
    assert retiring.lookup(cold, np.zeros_like(cold)) is not None  # stands aside now
    successor = HotCellCache(capacity=256)
    successor.take_over(retiring, store)
    assert len(successor) == 0 and successor._tick == 0
    # ...and its first lookup is exempt again, like any empty table's.
    assert successor.lookup(cold, np.zeros_like(cold)) is not None


def test_take_over_needs_a_table_of_the_same_size(stores):
    with pytest.raises(ValueError, match="size"):
        HotCellCache(64).take_over(HotCellCache(128), stores[0]["act"])
