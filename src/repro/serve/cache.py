"""Hot-cell caching for the serving hot path.

Probing the cell store is the dominant cost of a join, and real request
streams are heavily skewed: the Twitter-style workloads of the paper's
Figure 9 concentrate most points in a handful of city hotspots, so the
same leaf cells are probed over and over.  :class:`HotCellCache` is a
thread-safe, fixed-size hash table held in numpy arrays that remembers
the tagged entry the store returned for a cell key; a whole batch is
looked up, and its misses written back, with a handful of array gathers
and scatters — no per-key Python work.  :class:`CachedCellStore` wraps
any cell store behind the cache while still satisfying the ``probe``
protocol, so the existing join drivers
(``approximate_join``/``accurate_join``) run unchanged — a cached probe
is bit-identical to a direct one because the entry for a cell is
immutable once the index is built.

Replacement policy (the only one): every key hashes to two slots and is
found in either.  Each slot carries the tick of the last batch that read
or wrote it; a missing key is written over the less recently used of its
two slots — an empty one first — unless the batch being served already
used that slot, in which case the key is simply not cached this time.
When several keys of one batch pick the same slot one of them wins, and
the others take their second slot only if it is still empty.  This
tracks an exact LRU closely on skewed streams (a hot key is refreshed
every batch, so a flood of cold keys can only displace other cold keys)
at the cost of a few conflict misses an exact LRU would not have.

Standing aside (the only selection, made from what the table observes):
a lookup plus the write-back of its misses costs about as much as the
trie probe they are meant to save, so the table only pays off on streams
that mostly hit.  A lookup that misses more than half of its keys
therefore makes the table *decline* the next ``_STAND_ASIDE_LOOKUPS``
lookups — :meth:`HotCellCache.lookup` returns ``None`` and
:class:`CachedCellStore` probes its store directly, with no write-back —
after which one lookup samples the stream again, so a stream that turns
cacheable is back on the table within two samples.  The first lookup of
a table's life is exempt: an empty table misses any stream, and a served
layer gets a fresh table after every write.

Hit/miss accounting is weighted by *points*, not by distinct cells: a
micro-batch whose 10,000 points all fall in one cached cell records
10,000 hits, which is exactly the number of trie descents the cache
short-circuited.  Points of declined lookups are counted as
``bypassed``, beside — not inside — the hits and misses, so the hit rate
stays that of the keys actually looked up.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.cells.cellid import MAX_LEVEL
from repro.util.timing import Timer

# Two odd 64-bit multipliers (golden ratio, an xxHash prime): the top
# bits of ``key * multiplier mod 2**64`` are the key's two slot choices.
_HASH_FIRST = np.uint64(0x9E3779B97F4A7C15)
_HASH_SECOND = np.uint64(0xC2B2AE3D27D4EB4F)
#: Lookups the table declines after one that missed most of its keys.
_STAND_ASIDE_LOOKUPS = 15


@dataclass(frozen=True)
class CacheStats:
    """Point-weighted hit/miss counters of one :class:`HotCellCache`."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int
    #: Points whose lookup the table declined (probed directly instead).
    bypassed: int = 0

    @property
    def requests(self) -> int:
        """Keys actually looked up (bypassed points are not requests)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests


class HotCellCache:
    """Thread-safe two-choice hash table of ``cell key -> tagged entry``.

    ``capacity`` sizes the table: it has ``slots`` = the next power of two
    >= ``capacity`` (at least 2) slots of 24 bytes, and ``size`` counts
    the occupied ones.  ``capacity=0`` disables caching (every probe goes
    to the store and no statistics are recorded).  See the module
    docstring for the replacement policy.

    The batch API is :meth:`lookup` followed by :meth:`insert` for the
    keys it missed; each holds the lock only around its own gathers and
    scatters, so the store probe in between runs unlocked.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        bits = max(1, (capacity - 1).bit_length())
        self.slots = (1 << bits) if capacity else 0
        self._hash_shift = np.uint64(64 - bits)
        self._lock = threading.Lock()
        self._keys = np.zeros(self.slots, dtype=np.uint64)  #: guarded_by(_lock)
        self._entries = np.zeros(self.slots, dtype=np.uint64)  #: guarded_by(_lock)
        # Tick of the last batch that touched the slot; 0 = never filled.
        self._ticks = np.zeros(self.slots, dtype=np.int64)  #: guarded_by(_lock)
        self._tick = 0  #: guarded_by(_lock)
        self._hits = 0  #: guarded_by(_lock)
        self._misses = 0  #: guarded_by(_lock)
        self._evictions = 0  #: guarded_by(_lock)
        self._bypassed = 0  #: guarded_by(_lock)
        # Lookups still to decline (see the module docstring).
        self._stand_aside = 0  #: guarded_by(_lock)

    def _slot_choices(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shift = self._hash_shift
        return (
            ((keys * _HASH_FIRST) >> shift).astype(np.intp),
            ((keys * _HASH_SECOND) >> shift).astype(np.intp),
        )

    def lookup(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Cached entries for a batch of keys (repeats welcome).

        Returns ``(entries, missing, tick)``: one entry per key, zero at
        the positions listed in ``missing`` (ascending indices of the
        keys not cached), and the batch's tick, to be handed back to
        :meth:`insert`.  Every key counts as one hit or one miss.

        Returns ``None`` while the table stands aside (counting the keys
        as ``bypassed``): the caller probes its store directly and does
        not :meth:`insert`.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        if self.capacity == 0:
            return np.zeros(len(keys), dtype=np.uint64), np.arange(len(keys)), 0
        with self._lock:
            if self._stand_aside:
                self._stand_aside -= 1
                self._bypassed += len(keys)
                return None
        first, second = self._slot_choices(keys)
        with self._lock:
            self._tick += 1
            tick = self._tick
            slot = np.where(self._keys[first] == keys, first, second)
            # A never-filled slot holds key 0, which is also a valid key.
            hit = (self._keys[slot] == keys) & (self._ticks[slot] > 0)
            entries = self._entries[slot]
            self._ticks[slot[hit]] = tick
            missing = np.flatnonzero(~hit)
            self._hits += len(keys) - len(missing)
            self._misses += len(missing)
            # An empty table misses any stream, so its first lookup says
            # nothing about the stream.
            if tick > 1 and 2 * len(missing) > len(keys):
                self._stand_aside = _STAND_ASIDE_LOOKUPS
        entries[missing] = 0
        return entries, missing, tick

    def insert(self, keys: np.ndarray, entries: np.ndarray, tick: int) -> None:
        """Cache ``entries`` for the ``keys`` a :meth:`lookup` missed.

        ``tick`` is that lookup's: slots it (or any later batch) touched
        are never evicted.  Repeated keys, and distinct keys competing
        for one slot, are fine; a key that loses such a race gets its
        other slot if that one is still empty.
        """
        if self.capacity == 0 or len(keys) == 0:
            return
        keys = np.asarray(keys, dtype=np.uint64)
        entries = np.asarray(entries, dtype=np.uint64)
        first, second = self._slot_choices(keys)
        with self._lock:
            ticks = self._ticks
            first_tick = ticks[first]
            second_tick = ticks[second]
            older = np.where(first_tick <= second_tick, first, second)
            tried = np.flatnonzero(np.minimum(first_tick, second_tick) < tick)
            lost = self._write(older[tried], keys[tried], entries[tried], tick)
            retry = tried[lost]
            other = first[retry] + second[retry] - older[retry]
            empty = ticks[other] == 0
            retry = retry[empty]
            self._write(other[empty], keys[retry], entries[retry], tick)

    def _write(  #: requires(_lock)
        self, slots: np.ndarray, keys: np.ndarray, entries: np.ndarray, tick: int
    ) -> np.ndarray:
        """Overwrite ``slots`` with ``keys -> entries``.

        Returns the positions (into the arguments) whose write was lost.
        numpy leaves the winner of a repeated-index assignment undefined,
        so nothing here depends on it: keys are written first and read
        back, and an entry (and the tick) lands only where its key stuck —
        every winner of a slot then carries the same key and therefore
        the same entry.  A lost write is a future miss, never a wrong
        entry.
        """
        old_keys = self._keys[slots]
        occupied = self._ticks[slots] > 0
        self._keys[slots] = keys
        new_keys = self._keys[slots]
        stuck = new_keys == keys
        won = np.flatnonzero(stuck)
        won_slots = slots[won]
        self._entries[won_slots] = entries[won]
        self._ticks[won_slots] = tick
        # All writers of one slot saw the same old key and read back the
        # same new one, so this repeated-index assignment is well defined.
        replaced = np.zeros(self.slots, dtype=bool)
        replaced[slots] = occupied & (old_keys != new_keys)
        self._evictions += int(np.count_nonzero(replaced))
        return np.flatnonzero(~stuck)

    def __len__(self) -> int:
        with self._lock:
            return int(np.count_nonzero(self._ticks))

    def clear(self) -> None:
        with self._lock:
            self._keys[:] = 0
            self._entries[:] = 0
            self._ticks[:] = 0
            self._tick = 0
            self._hits = self._misses = self._evictions = 0
            self._bypassed = self._stand_aside = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=int(np.count_nonzero(self._ticks)),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                bypassed=self._bypassed,
            )


def key_shift_for_level(max_cell_level: int) -> int:
    """Right-shift turning a leaf cell id into a sound cache key.

    Full leaf ids (level 30) are nearly unique for continuous coordinates,
    so a cache keyed on them never hits.  But every store resolves a probe
    using only the indexed cells, and no indexed cell is deeper than the
    super covering's maximum level ``D`` — so two leaf ids sharing their
    level-``D`` ancestor are guaranteed the same probe result, and the
    ancestor's position bits make a sound, reusable cache key.

    A leaf id is ``face(3) | 60 position bits | marker(1)``: below the
    level-``D`` quadrant bits sit ``2 * (30 - D)`` finer position bits
    plus the marker bit, hence the ``+ 1``.
    """
    if not 0 <= max_cell_level <= MAX_LEVEL:
        raise ValueError(f"invalid cell level: {max_cell_level}")
    return 2 * (MAX_LEVEL - max_cell_level) + 1


class CachedCellStore:
    """A ``CellStore`` wrapper that serves probes through a hot-cell cache.

    Truncates the batch's leaf ids to cache keys (by ``key_shift``, see
    :func:`key_shift_for_level`), gathers the cached entries from the
    table, probes the underlying store with only the points whose key was
    missing, and writes those entries back — or, while the table stands
    aside, probes the store with the whole batch — so downstream decoding
    and refinement see exactly what a direct ``store.probe`` would return.
    The batch is never deduplicated: a repeated missing key costs one
    more lane of the store's vectorized probe, which is cheaper than
    finding the repeats.

    ``tracer`` is an optional :class:`~repro.obs.trace.Tracer`; each
    table lookup that happens (a declined one does not) shows up as a
    ``cache_lookup`` child span of the active dispatch, with its
    point-weighted miss count.
    """

    def __init__(self, store, cache: HotCellCache, key_shift: int = 0, tracer=None):
        if not 0 <= key_shift < 64:
            raise ValueError(f"key_shift must be in [0, 64), got {key_shift}")
        self.store = store
        self.cache = cache
        self.key_shift = key_shift
        self.tracer = tracer

    def probe(self, query_ids: np.ndarray) -> np.ndarray:
        query_ids = np.asarray(query_ids, dtype=np.uint64)
        cache = self.cache
        if query_ids.size == 0 or cache.capacity == 0:
            return self.store.probe(query_ids)
        keys = query_ids >> np.uint64(self.key_shift)
        with Timer() as timer:
            looked = cache.lookup(keys)
        if looked is None:
            return self.store.probe(query_ids)
        entries, missing, tick = looked
        if self.tracer is not None:
            self.tracer.emit(
                "cache_lookup", timer.seconds, keys=len(keys), misses=len(missing)
            )
        if missing.size:
            missed = self.store.probe(query_ids[missing])
            entries[missing] = missed
            cache.insert(keys[missing], missed, tick)
        return entries

    # Pass introspection through so `describe()`/`size_bytes` keep working.
    def __getattr__(self, name: str):
        # Only reached when normal lookup fails.  `copy.copy`/`pickle`
        # probe dunders (and then instance attributes) on a bare instance
        # whose __dict__ is not populated yet; delegating those through
        # ``self.store`` would recurse forever, so anything that should
        # live on the wrapper itself raises AttributeError instead.
        if name.startswith("__") or name in (
            "store", "cache", "key_shift", "tracer",
        ):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return getattr(self.store, name)
