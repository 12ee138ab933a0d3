"""Hot-cell caching for the serving hot path.

Real request streams are heavily skewed: the Twitter-style workloads of
the paper's Figure 9 concentrate most points in a handful of city
hotspots, and check-in streams (``venue_points``) repeat the very same
venue coordinates over and over.  A served read pays three stages per
point — the cell-id kernel (projection and Hilbert walk), the trie probe
and the count over the store's row table — and the first two depend on
nothing but the point.  :class:`HotCellCache` is a thread-safe,
fixed-size hash table held in numpy arrays that remembers, for a point
it has seen, the point's leaf cell id and one 64-bit value: for the
service, the row of its store's row table the probe returned (the rows
were decoded once, when the store was built; see
:mod:`repro.core.rows`).  A whole batch is looked up, and its misses
written back, with a handful of array gathers and scatters — no per-key
Python work.

The key (the only one the service uses): the two ``float64`` bit
patterns of ``(lat, lng)``.  ``JoinService`` resolves every batch
through the table *before* the cell-id kernel: hits return ``(leaf id,
row)`` straight from the table; only the misses go through the
cell-id kernel (or take the ids the caller brought) and the store probe,
and are written back.  The key is sound by construction: a point's leaf
id depends on the point alone (every index computes it with
``cell_ids_from_lat_lng_arrays``), and a table serves one ``(layer,
version)`` generation, within which equal leaf ids always yield the same
row — no truncation level and no argument about the deepest indexed
cell is needed.  Bit patterns, not values: ``0.0`` and ``-0.0`` are two
keys, and each NaN payload is its own key (comparing the ``uint64``
views never raises a floating-point warning).  Key reuse over a
two-batch window, truncated-cell key against coordinate key, measured on
the repository's streams: churn 0.937 / 0.935, sharded 0.001 / 0.000,
uniform serve 0.030 / 0.000, the drifting-hotspot adaptation stream
(level-25 trained index) 0.000 / 0.000 — no stream loses a hit by the
re-keying, and a hit now skips the cell-id kernel too.

The table outlives a write.  A swap or a mutation of a dynamic index
makes a new generation, and its table takes over from the retiring one
(:meth:`HotCellCache.take_over`) before it is published: it copies the
key, leaf id and tick of every slot the retiring table touched during
its own generation — those whose tick is later than the one it was
created at — under the retiring table's lock, and re-probes their leaf
ids once, in one ``store.probe_rows`` call of the new generation's
store, outside that lock.  Each carried row is therefore the new store's
own, and a warm stream keeps skipping the cell-id kernel and the probe
across writes.  The carried set is bounded by what the retiring
generation read: a key no lookup touched in a generation is not carried
past it.  Two tables start empty: the successor of a table standing
aside (see below), and a laggard dispatch's private table (one still
holding an older view), which is neither carried from nor carried into.

:class:`CachedCellStore` (with :func:`key_shift_for_level`) is the older
cell-keyed use of the same table: it wraps any cell store behind the
tagged-entry ``probe``, keying the table on ``(leaf id >> key_shift, 0)``
and storing the entries themselves as the values.  The service no longer
uses it; the benchmark's traced replay does.

Replacement policy (the only one): every key hashes to two slots and is
found in either.  Each slot carries the tick of the last batch that read
or wrote it; a missing key is written over the less recently used of its
two slots — an empty one first — unless the batch being served already
used that slot, in which case the key is simply not cached this time.
When several keys of one batch pick the same slot one of them wins, and
the others take their second slot only if it is still empty.  This
tracks an exact LRU closely on skewed streams (a hot key is refreshed
every batch, so a flood of cold keys can only displace other cold keys)
at the cost of a few conflict misses an exact LRU would not have.  To
keep those few, ``capacity`` sizes the table at the next power of two
>= ``4 * capacity`` slots (40 bytes each: 640 KiB at the default 4,096).
The table holds up to ``slots`` keys — a missing key fills any empty
slot — so ``capacity`` is not a cap on ``size``; the load factor stays
<= 1/4 while a stream has at most ``capacity`` distinct keys: one batch
of 2,048 distinct random keys written back to a ``HotCellCache(4096)``
then misses under 1 % of them, 4,096 keys about 3 % (9 % and 25 % with
one slot per unit of capacity).

Standing aside (the only selection, made from what the table observes,
unchanged by the re-keying): a lookup plus the write-back of its misses
costs about as much as the work they are meant to save, so the table
only pays off on streams that mostly hit.  A lookup that misses more
than half of its keys therefore makes the table *decline* the next
``_STAND_ASIDE_LOOKUPS`` lookups — :meth:`HotCellCache.lookup` returns
``None`` and the caller computes and probes the whole batch directly,
with no write-back — after which one lookup samples the stream again, so
a stream that turns cacheable is back on the table within two samples.
The first lookup of a table's life is exempt: an empty table misses any
stream, and the successor of a table that stands aside starts empty.

Hit/miss accounting is weighted by *points*, not by distinct keys: a
micro-batch whose 10,000 points all repeat one cached coordinate records
10,000 hits, which is exactly the number of cell-id computations and
trie descents the table short-circuited.  Points of declined lookups are
counted as ``bypassed``, beside — not inside — the hits and misses, so
the hit rate stays that of the keys actually looked up.  The counters
are per generation (a successor starts them at zero); ``size`` counts
the keys held, carried ones included: distinct points for the service's
table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.cells.cellid import MAX_LEVEL
from repro.util.timing import Timer

# Odd 64-bit multipliers (golden ratio, xxHash primes): with each word
# folded as ``w ^ (w >> 32)``, the top bits of ``lat * first[0] ^ lng *
# first[1]`` (mod 2**64) are a key's first slot choice, those of the
# ``second`` pair its other.  The fold matters for coordinates: a round
# number's bit pattern (``-0.0`` is ``1 << 63``) has no low bits for the
# multiplication to carry up.
_HASH_FIRST = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0x165667B19E3779F9))
_HASH_SECOND = (np.uint64(0xC2B2AE3D27D4EB4F), np.uint64(0x27D4EB2F165667C5))
_FOLD = np.uint64(32)
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
    #: Points whose lookup the table declined (resolved directly instead).
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
    """Thread-safe two-choice hash table of ``key -> (leaf id, value)``.

    A key is two 64-bit words, ``(lat_bits, lng_bits)``: the service
    passes a point's ``float64`` bit patterns and stores its probe row
    as the ``uint64`` value (see the module docstring).
    ``capacity`` sizes the table: it has ``slots`` = the next power of
    two >= ``4 * capacity`` slots of 40 bytes and holds up to ``slots``
    keys, and ``size`` counts the occupied ones.  The load factor stays
    <= 1/4 while a stream has at most ``capacity`` distinct keys.
    ``capacity=0`` disables caching (every lookup misses and no
    statistics are recorded).

    The batch API is :meth:`lookup` followed by :meth:`insert` for the
    keys it missed; each holds the lock only around its own gathers and
    scatters, so the work resolving the misses runs unlocked.  A table
    replacing another for the next generation starts from the keys the
    retiring one was used for (:meth:`take_over`).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        # Four slots per unit of capacity: the load factor stays <= 1/4
        # while at most ``capacity`` distinct keys arrive.
        bits = max(1, (4 * capacity - 1).bit_length())
        self.slots = (1 << bits) if capacity else 0
        self._hash_shift = np.uint64(64 - bits)
        self._lock = threading.Lock()
        self._key_lats = np.zeros(self.slots, dtype=np.uint64)  #: guarded_by(_lock)
        self._key_lngs = np.zeros(self.slots, dtype=np.uint64)  #: guarded_by(_lock)
        self._leaf_ids = np.zeros(self.slots, dtype=np.uint64)  #: guarded_by(_lock)
        self._values = np.zeros(self.slots, dtype=np.uint64)  #: guarded_by(_lock)
        # Tick of the last batch that touched the slot; 0 = never filled.
        self._ticks = np.zeros(self.slots, dtype=np.int64)  #: guarded_by(_lock)
        self._tick = 0  #: guarded_by(_lock)
        # The tick this table was created at: a carried slot holds an
        # older one, a slot used during this table's generation a later one.
        self._born = 0  #: guarded_by(_lock)
        self._hits = 0  #: guarded_by(_lock)
        self._misses = 0  #: guarded_by(_lock)
        self._evictions = 0  #: guarded_by(_lock)
        self._bypassed = 0  #: guarded_by(_lock)
        # Lookups still to decline (see the module docstring).
        self._stand_aside = 0  #: guarded_by(_lock)

    def _slot_choices(
        self, lat_bits: np.ndarray, lng_bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # In place where it can be: this runs on every point of a lookup.
        shift = self._hash_shift
        lat = lat_bits >> _FOLD
        lat ^= lat_bits
        lng = lng_bits >> _FOLD
        lng ^= lng_bits
        first = lat * _HASH_FIRST[0]
        first ^= lng * _HASH_FIRST[1]
        first >>= shift
        lat *= _HASH_SECOND[0]
        lng *= _HASH_SECOND[1]
        lat ^= lng
        lat >>= shift
        # A slot number is below 2**63: the view is the index, uncopied.
        return first.view(np.intp), lat.view(np.intp)

    def lookup(
        self, lat_bits: np.ndarray, lng_bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
        """Cached leaf ids and values for a batch of keys (repeats welcome).

        Returns ``(leaf_ids, values, missing, tick)``: one leaf id and
        one value per key, both zero at the positions listed in
        ``missing`` (ascending indices of the keys not cached), and the
        batch's tick, to be handed back to :meth:`insert`.  Every key
        counts as one hit or one miss.

        Returns ``None`` while the table stands aside (counting the keys
        as ``bypassed``): the caller resolves the batch directly and does
        not :meth:`insert`.
        """
        lat_bits = np.asarray(lat_bits, dtype=np.uint64)
        lng_bits = np.asarray(lng_bits, dtype=np.uint64)
        if self.capacity == 0:
            none = np.zeros(len(lat_bits), dtype=np.uint64)
            return none, none.copy(), np.arange(len(lat_bits)), 0
        with self._lock:
            if self._stand_aside:
                self._stand_aside -= 1
                self._bypassed += len(lat_bits)
                return None
        first, second = self._slot_choices(lat_bits, lng_bits)
        with self._lock:
            self._tick += 1
            tick = self._tick
            key_lats, key_lngs = self._key_lats, self._key_lngs
            in_first = key_lats[first] == lat_bits
            in_first &= key_lngs[first] == lng_bits
            slot = np.where(in_first, first, second)
            hit = key_lats[slot] == lat_bits
            hit &= key_lngs[slot] == lng_bits
            # A never-filled slot holds key (0, 0), also a valid key.
            hit &= self._ticks[slot] > 0
            leaf_ids = self._leaf_ids[slot]
            values = self._values[slot]
            self._ticks[slot[hit]] = tick
            missing = np.flatnonzero(~hit)
            self._hits += len(lat_bits) - len(missing)
            self._misses += len(missing)
            # An empty table misses any stream, so its first lookup says
            # nothing about the stream.
            if tick > self._born + 1 and 2 * len(missing) > len(lat_bits):
                self._stand_aside = _STAND_ASIDE_LOOKUPS
        leaf_ids[missing] = 0
        values[missing] = 0
        return leaf_ids, values, missing, tick

    def take_over(self, retiring: HotCellCache, store) -> None:
        """Start from the keys ``retiring`` was used for, before this
        table is published.

        Copies key, leaf id and tick of every slot ``retiring`` touched
        during its own generation (under its lock), re-probes those leaf
        ids to rows of ``store`` — this table's generation's — in one
        call (unlocked), and writes them into the same slots here; this
        table's ticks continue from the retiring one's.  A retiring
        table that stands aside hands nothing over.  ``retiring`` must
        have this table's capacity.
        """
        if retiring.slots != self.slots:
            raise ValueError("a table takes over only from one of its size")
        with retiring._lock:
            if retiring._stand_aside:
                return
            slots = np.flatnonzero(retiring._ticks > retiring._born)
            key_lats = retiring._key_lats[slots]
            key_lngs = retiring._key_lngs[slots]
            leaf_ids = retiring._leaf_ids[slots]
            ticks = retiring._ticks[slots]
            tick = retiring._tick
        rows = store.probe_rows(leaf_ids)
        with self._lock:
            self._key_lats[slots] = key_lats
            self._key_lngs[slots] = key_lngs
            self._leaf_ids[slots] = leaf_ids
            self._values[slots] = rows
            self._ticks[slots] = ticks
            self._tick = self._born = tick

    def insert(
        self,
        lat_bits: np.ndarray,
        lng_bits: np.ndarray,
        leaf_ids: np.ndarray,
        values: np.ndarray,
        tick: int,
    ) -> None:
        """Cache ``(leaf_ids, values)`` for the keys a :meth:`lookup`
        missed.

        ``tick`` is that lookup's: slots it (or any later batch) touched
        are never evicted.  Repeated keys, and distinct keys competing
        for one slot, are fine; a key that loses such a race gets its
        other slot if that one is still empty.
        """
        if self.capacity == 0 or len(lat_bits) == 0:
            return
        keys = (
            np.asarray(lat_bits, dtype=np.uint64),
            np.asarray(lng_bits, dtype=np.uint64),
        )
        values = (
            np.asarray(leaf_ids, dtype=np.uint64),
            np.asarray(values, dtype=np.uint64),
        )
        first, second = self._slot_choices(*keys)
        with self._lock:
            ticks = self._ticks
            first_tick = ticks[first]
            second_tick = ticks[second]
            older = np.where(first_tick <= second_tick, first, second)
            tried = np.flatnonzero(np.minimum(first_tick, second_tick) < tick)
            lost = self._write(older[tried], keys, values, tried, tick)
            if lost.size:
                retry = tried[lost]
                other = first[retry] + second[retry] - older[retry]
                empty = ticks[other] == 0
                self._write(other[empty], keys, values, retry[empty], tick)

    def _write(  #: requires(_lock)
        self,
        slots: np.ndarray,
        keys: tuple[np.ndarray, np.ndarray],
        values: tuple[np.ndarray, np.ndarray],
        rows: np.ndarray,
        tick: int,
    ) -> np.ndarray:
        """Write ``keys[rows] -> values[rows]`` into ``slots``.

        Returns the positions (into ``slots``) whose key did not land.
        numpy leaves the winner of a repeated-index assignment undefined,
        and a key is two words, so a slot is claimed first: every writer
        scatters its position into one scratch array and reads back the
        position that stuck — one winner per slot, whichever numpy picked
        — and only winners write the slot's key, values and tick.  A
        writer whose key equals its winner's (a repeated key) landed too;
        the others lost: a lost write is a future miss, never a wrong
        value.
        """
        positions = np.arange(len(slots))
        claims = np.empty(self.slots, dtype=np.intp)
        claims[slots] = positions
        winner = claims[slots]
        lat_bits, lng_bits = keys[0][rows], keys[1][rows]
        landed = (lat_bits[winner] == lat_bits) & (lng_bits[winner] == lng_bits)
        won = np.flatnonzero(winner == positions)
        won_slots = slots[won]
        won_lats, won_lngs = lat_bits[won], lng_bits[won]
        # A key another thread cached meanwhile is rewritten, not evicted.
        replaced = (self._ticks[won_slots] > 0) & (
            (self._key_lats[won_slots] != won_lats)
            | (self._key_lngs[won_slots] != won_lngs)
        )
        self._evictions += int(np.count_nonzero(replaced))
        self._key_lats[won_slots] = won_lats
        self._key_lngs[won_slots] = won_lngs
        self._leaf_ids[won_slots] = values[0][rows[won]]
        self._values[won_slots] = values[1][rows[won]]
        self._ticks[won_slots] = tick
        return np.flatnonzero(~landed)

    def __len__(self) -> int:
        with self._lock:
            return int(np.count_nonzero(self._ticks))

    def clear(self) -> None:
        with self._lock:
            self._key_lats[:] = 0
            self._key_lngs[:] = 0
            self._leaf_ids[:] = 0
            self._values[:] = 0
            self._ticks[:] = 0
            self._tick = self._born = 0
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
    """Right-shift turning a leaf cell id into a sound cell key.

    Full leaf ids (level 30) are nearly unique for continuous coordinates,
    so a table keyed on them never hits.  But every store resolves a probe
    using only the indexed cells, and no indexed cell is deeper than the
    super covering's maximum level ``D`` — so two leaf ids sharing their
    level-``D`` ancestor are guaranteed the same probe result, and the
    ancestor's position bits make a sound, reusable key.

    A leaf id is ``face(3) | 60 position bits | marker(1)``: below the
    level-``D`` quadrant bits sit ``2 * (30 - D)`` finer position bits
    plus the marker bit, hence the ``+ 1``.
    """
    if not 0 <= max_cell_level <= MAX_LEVEL:
        raise ValueError(f"invalid cell level: {max_cell_level}")
    return 2 * (MAX_LEVEL - max_cell_level) + 1


class CachedCellStore:
    """A ``CellStore`` wrapper that serves probes through a cell-keyed table.

    Truncates the batch's leaf ids to cell keys (by ``key_shift``, see
    :func:`key_shift_for_level`), looks the keys ``(key, 0)`` up in the
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
        no_word = np.zeros(len(keys), dtype=np.uint64)
        with Timer() as timer:
            looked = cache.lookup(keys, no_word)
        if looked is None:
            return self.store.probe(query_ids)
        _, entries, missing, tick = looked
        if self.tracer is not None:
            self.tracer.emit(
                "cache_lookup", timer.seconds, keys=len(keys), misses=len(missing)
            )
        if missing.size:
            missed_ids = query_ids[missing]
            missed = self.store.probe(missed_ids)
            entries[missing] = missed
            cache.insert(
                keys[missing], no_word[missing], missed_ids, missed, tick
            )
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
