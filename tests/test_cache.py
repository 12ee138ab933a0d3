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

from repro.core import DynamicPolygonIndex, PolygonIndex, attach_index, pack_index
from repro.core.act import AdaptiveCellTrie
from repro.core.dynamic import OverlayCellStore
from repro.geo.polygon import regular_polygon
from repro.serve.cache import CachedCellStore, HotCellCache

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
        assert stats.hits + stats.misses == probed
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
    """Four threads hammer one small table (the ``MorselExecutor``
    situation): every probe stays equal to the direct one, and no counter
    update is lost.  Also run under ``REPRO_SANITIZE=1`` in CI."""
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
    assert stats.hits + stats.misses == num_threads * rounds * batch
    assert stats.hits > 0 and stats.evictions > 0
    assert stats.size <= cache.slots
