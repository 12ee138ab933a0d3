"""Dynamic index lifecycle: a delta overlay over an immutable base snapshot.

The paper's ACT is immutable once built — the right trade for its
mostly-static polygon sets, but a production geofencing layer churns:
fences appear and retire continuously.  A rebuild per write does not fit
either: on the 289-polygon ``neighborhoods`` layer one costs 176–457 ms
against an overlay insert's 11–15 ms (DESIGN.md, "The index lifecycle").
:class:`DynamicPolygonIndex` is a base, a delta and one lock:

* the **base** is an ordinary immutable :class:`~repro.core.builder.PolygonIndex`
  snapshot, and its ``covering_options`` / ``interior_options`` are the
  ones every insert and every compaction covers with;
* **inserts** go to a *delta overlay*: the new polygon is covered with the
  exact same pipeline stages as a full build
  (:func:`~repro.core.builder.cover_polygon` → the build's merge sweep
  over the delta's small :class:`~repro.core.super_covering.SuperCovering`
  plus the new cells → a small side cell store), so delta probes carry
  the same precision guarantees;
* **deletes** only record the polygon id in a *tombstone* set;
* **probes** merge base and delta entries and mask tombstones inside
  :class:`OverlayCellStore`, which satisfies the ordinary ``probe``
  protocol — so the one join driver and its two kernels (and everything
  layered on them: caching, morsel parallelism, the serving facade) run
  unchanged and return results identical to a fresh build over the
  current polygon set;
* **compaction** runs the full build pipeline over the live set into a
  fresh versioned snapshot and installs it with an empty delta — inline,
  under the index's lock, once the delta holds ``compact_threshold``
  mutations or whenever :meth:`~DynamicPolygonIndex.compact` /
  :meth:`~DynamicPolygonIndex.retrain` is called.  A writer waits behind
  it; a reader never takes the lock: every mutation publishes one
  immutable :class:`~repro.core.builder.ProbeView`, and a join reads the
  view that was current when it started.  Compaction pays for what
  changed: a surviving polygon is never re-covered, re-bucketed or
  re-classified (its coverings, bucket rows and relation classifier are
  memoized on the polygon object — an insert's covering is the one its
  compaction reuses), and the ACT is bulk-built from the sorted covering
  in linear passes.  The ``compaction`` event says what the rebuild cost
  (``cover_seconds``, ``store_seconds``, ``covered``).

Polygon ids are *stable*: an insert is assigned the next id and keeps it
across compactions; a delete leaves a hole (``None``) rather than
renumbering survivors.  Every mutation and every compaction bumps the
index ``version`` (monotonic across the process), which the serving layer
uses to key caches and swap snapshots without ever serving stale entries.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.cells.coverer import CovererOptions
from repro.core.act import AdaptiveCellTrie
from repro.core.builder import (
    DEFAULT_COVERING_OPTIONS,
    DEFAULT_INTERIOR_OPTIONS,
    BuildTimings,
    PolygonIndex,
    ProbeView,
    build_pipeline,
    build_store,
    cover_polygon,
    next_index_version,
)
from repro.core.joins import JoinResult
from repro.core.lookup_table import (
    SENTINEL_ENTRY,
    TAG_OFFSET,
    TAG_TWO_REFS,
    LookupTable,
)
from repro.core.morsels import offline_pool
from repro.core.precision import refine_to_precision
from repro.core.refs import merge_refs, validate_polygon_id
from repro.core.super_covering import SuperCovering
from repro.geo.polygon import Polygon
from repro.geo.refine import RefinementEngine


#: Bits of a polygon id inside an inlined reference (above its interior bit).
_INLINE_ID_MASK = np.uint64((1 << 30) - 1)


class OverlayCellStore:
    """Merge a base store and a delta store behind one ``probe`` protocol.

    Probes both stores and merges only the lanes a write can change: a
    lane whose base entry is inline (a miss, or one or two references —
    which decode the same against any table), whose delta entry is a
    miss and none of whose references is tombstoned merges to its base
    entry itself (``merge_refs`` sorts ascending, as a covering row
    already is), so it keeps it.  The other lanes decode each distinct
    ``(base entry, delta entry)`` pair once, merge the reference sets,
    mask tombstoned polygon ids, and re-encode the merged set against the
    overlay's own lookup table — so downstream drivers see one consistent
    ``(store, lookup_table)`` pair exactly as if the index had been built
    over the merged polygon set.

    The store is immutable with respect to the overlay state it was built
    from (tombstones are copied, the delta store is never mutated after
    construction), so a reader holding an old overlay keeps getting
    consistent answers while the dynamic index moves on.
    """

    def __init__(
        self,
        base_store: AdaptiveCellTrie,
        base_table: LookupTable,
        delta_store: AdaptiveCellTrie | None,
        delta_table: LookupTable | None,
        tombstones: Sequence[int] | frozenset[int],
    ):
        self._base_store = base_store
        self._base_table = base_table
        self._delta_store = delta_store
        self._delta_table = delta_table
        self._tombstones = frozenset(tombstones)
        # dead[pid] for every pid up to the largest tombstone (one byte
        # per id ever assigned, at most); larger ids are clipped to the
        # last slot, which stays False.  One gather tests a whole batch.
        self._dead = np.zeros(max(self._tombstones, default=-1) + 2, dtype=bool)
        self._dead[list(self._tombstones)] = True
        #: What a rebuild over this view indexes with (the base's fanout).
        self.fanout_bits = base_store.fanout_bits
        #: Re-encoded merged entries live here; probe results must be
        #: decoded against THIS table, never the base's or the delta's.
        self.lookup_table = LookupTable()
        self._memo: dict[tuple[int, int], int] = {}
        self._memo_lock = threading.Lock()

    def probe(self, query_ids: np.ndarray) -> np.ndarray:
        query_ids = np.asarray(query_ids, dtype=np.uint64)
        if query_ids.size == 0:
            return np.zeros(0, dtype=np.uint64)
        entries = self._base_store.probe(query_ids)
        tags = entries & np.uint64(3)
        changed = tags == np.uint64(TAG_OFFSET)
        if self._delta_store is not None:
            delta_entries = self._delta_store.probe(query_ids)
            changed |= delta_entries != np.uint64(SENTINEL_ENTRY)
        else:
            delta_entries = np.zeros(len(query_ids), dtype=np.uint64)
        if self._tombstones:
            dead = self._dead
            last = np.uint64(len(dead) - 1)
            first = (entries >> np.uint64(3)) & _INLINE_ID_MASK
            second = entries >> np.uint64(34)  # a two-ref entry's top bits
            first_dead = dead[np.minimum(first, last, out=first)]
            first_dead &= entries != np.uint64(SENTINEL_ENTRY)
            second_dead = dead[np.minimum(second, last, out=second)]
            second_dead &= tags == np.uint64(TAG_TWO_REFS)
            changed |= first_dead
            changed |= second_dead
        lanes = np.flatnonzero(changed)
        if lanes.size:
            entries[lanes] = self._merge_lanes(entries[lanes], delta_entries[lanes])
        return entries

    def _merge_lanes(
        self, base_entries: np.ndarray, delta_entries: np.ndarray
    ) -> np.ndarray:
        # Merge each distinct (base, delta) entry pair exactly once: the
        # number of distinct pairs is bounded by the covering sizes, not by
        # the batch size, so the python-level merge stays off the hot path.
        # Sorted by the pair, a lane starts a group where either entry
        # changes.
        order = np.lexsort((delta_entries, base_entries))
        base_sorted = base_entries[order]
        delta_sorted = delta_entries[order]
        starts = np.empty(len(order), dtype=bool)
        starts[:1] = True
        np.not_equal(base_sorted[1:], base_sorted[:-1], out=starts[1:])
        starts[1:] |= delta_sorted[1:] != delta_sorted[:-1]
        heads = np.flatnonzero(starts)
        merged = np.fromiter(
            (
                self._merge(base, delta)
                for base, delta in zip(
                    base_sorted[heads].tolist(), delta_sorted[heads].tolist()
                )
            ),
            dtype=np.uint64,
            count=len(heads),
        )
        out = np.empty(len(order), dtype=np.uint64)
        out[order] = merged[np.cumsum(starts) - 1]
        return out

    def _merge(self, base_entry: int, delta_entry: int) -> int:
        memo_key = (base_entry, delta_entry)
        entry = self._memo.get(memo_key)
        if entry is not None:
            return entry
        refs = []
        if base_entry != SENTINEL_ENTRY:
            refs.extend(self._base_table.decode_entry(base_entry))
        if delta_entry != SENTINEL_ENTRY:
            refs.extend(self._delta_table.decode_entry(delta_entry))
        live = tuple(
            ref for ref in merge_refs(refs) if ref.polygon_id not in self._tombstones
        )
        with self._memo_lock:
            entry = self.lookup_table.encode(live) if live else SENTINEL_ENTRY
            self._memo[memo_key] = entry
        return entry

    @property
    def size_bytes(self) -> int:
        total = self._base_store.size_bytes
        if self._delta_store is not None:
            total += self._delta_store.size_bytes
        return total + self.lookup_table.size_bytes

    def describe(self) -> dict[str, object]:
        return {
            "kind": "overlay",
            "tombstones": len(self._tombstones),
            "base": self._base_store.describe(),
        }


class DynamicPolygonIndex:
    """A point-polygon join index that supports online inserts and deletes.

    Parameters
    ----------
    base:
        The immutable snapshot to start from (any :class:`PolygonIndex`);
        its covering options cover every insert and every compaction.
    compact_threshold:
        Delta size (inserts + deletes since the last compaction) that
        triggers an inline compaction; ``None`` disables automatic
        compaction (call :meth:`compact` yourself).
    training_cell_ids / training_max_cells:
        The training configuration every compaction builds with (see
        :meth:`retrain`, which replaces it).
    events / metrics:
        Optional telemetry plane: one ``compaction`` event per installed
        snapshot, and the ``index_compactions_total`` counter.

    Join results are always identical to a fresh
    ``PolygonIndex.build`` over the current live polygon set (exact joins
    unconditionally; approximate joins whenever no precision refinement or
    training reshaped the covering), with polygon ids kept stable across
    the whole lifecycle.
    """

    def __init__(
        self,
        base: PolygonIndex,
        *,
        compact_threshold: int | None = 64,
        training_cell_ids: np.ndarray | None = None,
        training_max_cells: int | None = None,
        events=None,
        metrics=None,
    ):
        if compact_threshold is not None and compact_threshold < 1:
            raise ValueError("compact_threshold must be >= 1 (or None)")
        self._lock = threading.RLock()
        self._compact_threshold = compact_threshold
        self._training_cell_ids = training_cell_ids  #: guarded_by(_lock)
        self._training_max_cells = training_max_cells  #: guarded_by(_lock)
        self._training_order = "arrival"  #: guarded_by(_lock)
        self._events = events
        self._compaction_counter = (
            metrics.counter(
                "index_compactions_total",
                "delta compactions installed",
            )
            if metrics is not None
            else None
        )
        self._compactions = 0  #: guarded_by(_lock, writes)
        self._version = base.version  #: guarded_by(_lock, writes)
        self._install_base(base)

    @classmethod
    def build(
        cls,
        polygons: Sequence[Polygon],
        *,
        precision_meters: float | None = None,
        fanout_bits: int = 8,
        covering_options: CovererOptions = DEFAULT_COVERING_OPTIONS,
        interior_options: CovererOptions = DEFAULT_INTERIOR_OPTIONS,
        training_cell_ids: np.ndarray | None = None,
        training_max_cells: int | None = None,
        compact_threshold: int | None = 64,
        events=None,
        metrics=None,
    ) -> "DynamicPolygonIndex":
        """Build the base snapshot (which records the covering options)
        and wrap it for online updates."""
        base = PolygonIndex.build(
            polygons,
            precision_meters=precision_meters,
            fanout_bits=fanout_bits,
            covering_options=covering_options,
            interior_options=interior_options,
            training_cell_ids=training_cell_ids,
            training_max_cells=training_max_cells,
        )
        return cls(
            base,
            compact_threshold=compact_threshold,
            training_cell_ids=training_cell_ids,
            training_max_cells=training_max_cells,
            events=events,
            metrics=metrics,
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, polygon: Polygon) -> int:
        """Add a polygon online; returns its (stable) id.

        The polygon is covered with the base's options through the shared
        build-pipeline stages and indexed in the delta overlay; the base
        snapshot is untouched.
        """
        with self._lock:
            pid = validate_polygon_id(len(self._polygons))
            base = self._base
            covering, interior = cover_polygon(
                polygon, base.covering_options, base.interior_options
            )
            self._polygons.append(polygon)
            if self.precision_meters is None:
                self._delta_covering.insert_covering(pid, covering, interior)
            else:
                # Refine only the new polygon (in its own small covering), then
                # merge the refined cells: earlier delta polygons were refined
                # at their own insert, and conflict resolution preserves every
                # point's reference set, so the precision bound carries over —
                # without re-classifying the whole delta on each insert.
                refined = SuperCovering()
                refined.insert_covering(pid, covering, interior)
                refine_to_precision(refined, self._polygons, self.precision_meters)
                self._delta_covering.merge(refined)
            # The delta store is tiny (bounded by the compaction threshold), so
            # rebuilding it per insert is the cheap half of the bargain; old
            # probe views keep their previous store, which is self-contained.
            self._delta_store = build_store(
                self._delta_covering, fanout_bits=base.store.fanout_bits
            )
            self._delta_ids.add(pid)
            self._publish_write()
        return pid

    def delete(self, polygon_id: int) -> None:
        """Retire a polygon online (base or delta) via a tombstone."""
        with self._lock:
            if not self.is_live(polygon_id):
                raise KeyError(f"polygon id {polygon_id} is not live")
            self._tombstones.add(int(polygon_id))
            self._publish_write()

    def is_live(self, polygon_id: int) -> bool:
        """Whether ``polygon_id`` currently participates in joins."""
        with self._lock:
            return (
                0 <= polygon_id < len(self._polygons)
                and self._polygons[polygon_id] is not None
                and polygon_id not in self._tombstones
            )

    def _publish_write(self) -> None:  #: requires(_lock)
        """Publish a write's view; compact once the delta is full."""
        self._version = next_index_version()
        self._refresh_view()
        if (
            self._compact_threshold is not None
            and self.delta_size >= self._compact_threshold
        ):
            self.compact()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self) -> PolygonIndex:
        """Rebuild the live polygon set into a fresh snapshot and install it.

        Runs inline, under the index's lock, with the base's covering
        options and the current training configuration: every pending
        mutation is folded in and the delta starts empty.  Writers wait
        for it; joins do not (they read the published view).  Returns the
        installed base.
        """
        with self._lock:
            old = self._base
            polygons_by_id = [
                None if pid in self._tombstones else polygon
                for pid, polygon in enumerate(self._polygons)
            ]
            live = [
                (pid, polygon)
                for pid, polygon in enumerate(polygons_by_id)
                if polygon is not None
            ]
            artifacts = build_pipeline(
                live,
                polygons_by_id,
                precision_meters=self.precision_meters,
                covering_options=old.covering_options,
                interior_options=old.interior_options,
                training_cell_ids=self._training_cell_ids,
                training_max_cells=self._training_max_cells,
                training_order=self._training_order,
                fanout_bits=old.store.fanout_bits,
            )
            base = PolygonIndex(
                polygons_by_id,
                artifacts.super_covering,
                artifacts.store,
                artifacts.store.lookup_table,
                artifacts.timings,
                self.precision_meters,
                artifacts.training_report,
            )
            base.covering_options = old.covering_options
            base.interior_options = old.interior_options
            self._compactions += 1
            self._version = next_index_version()
            self._install_base(base)
            if self._compaction_counter is not None:
                self._compaction_counter.inc()
            if self._events is not None:
                self._events.emit(
                    "compaction",
                    version=int(self._version),
                    compactions=int(self._compactions),
                    live_polygons=base.num_polygons,
                    # What the rebuild cost, and for how many polygons
                    # the covering was computed rather than remembered.
                    cover_seconds=base.timings.individual_coverings_seconds,
                    store_seconds=base.timings.store_build_seconds,
                    covered=base.timings.covered,
                )
            return base

    def retrain(
        self,
        training_cell_ids: np.ndarray,
        *,
        max_cells: int | None = None,
        order: str = "hot",
    ) -> PolygonIndex:
        """Retrain on new historical points: a compaction under a new
        training configuration.

        The configuration (ids, cell budget, split schedule) replaces the
        current one and governs every later compaction too; pending delta
        mutations are folded into the trained snapshot.  Runs inline, like
        :meth:`compact` (the adaptation controller calls it from its own
        worker thread).  Returns the installed base.
        """
        with self._lock:
            self._training_cell_ids = np.asarray(training_cell_ids, dtype=np.uint64)
            self._training_max_cells = max_cells
            self._training_order = order
            return self.compact()

    def _install_base(self, base: PolygonIndex) -> None:  #: requires(_lock)
        """Make ``base`` the snapshot, with an empty delta, and publish it."""
        self._base = base  #: guarded_by(_lock, writes)
        self.precision_meters = base.precision_meters
        self._polygons: list[Polygon | None] = list(base.polygons)  #: guarded_by(_lock)
        self._tombstones: set[int] = set()  #: guarded_by(_lock)
        self._delta_covering = SuperCovering()  #: guarded_by(_lock)
        self._delta_store: AdaptiveCellTrie | None = None  #: guarded_by(_lock)
        self._delta_ids: set[int] = set()  #: guarded_by(_lock)
        self._refresh_view()

    # ------------------------------------------------------------------
    # Probe views
    # ------------------------------------------------------------------

    def _refresh_view(self) -> None:  #: requires(_lock)
        """Publish a fresh immutable probe view (lock held)."""
        if not self._delta_ids and not self._tombstones:
            store: AdaptiveCellTrie | OverlayCellStore = self._base.store
            table = self._base.lookup_table
            max_level = self._base.max_cell_level()
            # Clean base: reuse the snapshot's engine so its bucket table
            # is assembled once per base generation, not per refresh.
            refiner = self._base.probe_view().refiner
        else:
            delta = self._delta_store
            store = OverlayCellStore(
                self._base.store,
                self._base.lookup_table,
                delta,
                delta.lookup_table if delta is not None else None,
                self._tombstones,
            )
            table = store.lookup_table
            max_level = max(
                self._base.max_cell_level(), self._delta_covering.max_level()
            )
            # Overlay views are born and die per mutation, but the packed
            # bucket rows are memoized on the polygon objects: the view's
            # engine assembles its table on first exact join with one
            # concatenate, and surviving polygons are never re-bucketed
            # across overlays and compactions.
            refiner = RefinementEngine(tuple(self._polygons))
        #: guarded_by(_lock, writes)
        self._view = ProbeView(
            version=self._version,
            store=store,
            lookup_table=table,
            polygons=tuple(self._polygons),
            max_cell_level=max_level,
            refiner=refiner,
        )

    def probe_view(self) -> ProbeView:
        """The current immutable probe snapshot (atomic read)."""
        return self._view

    # ------------------------------------------------------------------
    # Queries (same shapes as PolygonIndex)
    # ------------------------------------------------------------------

    def cell_ids_for(self, lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
        return self._base.cell_ids_for(lats, lngs)

    def join(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        *,
        exact: bool = False,
        materialize: bool = False,
        cell_ids: np.ndarray | None = None,
        num_threads: int = 1,
    ) -> JoinResult:
        """Join points against the current live polygon set.

        The same :meth:`ProbeView.join` as ``PolygonIndex.join``; the
        overlay store merges base and delta and masks tombstones
        underneath the driver.
        """
        with offline_pool(num_threads) as pool:
            return self._view.join(
                lats,
                lngs,
                exact=exact,
                materialize=materialize,
                cell_ids=cell_ids,
                executor=pool,
            )

    def containing_polygons(self, lat: float, lng: float, exact: bool = True) -> list[int]:
        result = self.join(
            np.asarray([lat]), np.asarray([lng]), exact=exact, materialize=True
        )
        assert result.pair_polygons is not None
        return sorted(int(p) for p in result.pair_polygons)

    def max_cell_level(self) -> int:
        return self._view.max_cell_level

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def base(self) -> PolygonIndex:
        """The current immutable base snapshot."""
        return self._base

    @property
    def polygons(self) -> tuple[Polygon | None, ...]:
        """Id-indexable polygon sequence (``None`` marks deleted ids)."""
        return self._view.polygons

    @property
    def store(self) -> AdaptiveCellTrie | OverlayCellStore:
        return self._view.store

    @property
    def lookup_table(self) -> LookupTable:
        return self._view.lookup_table

    @property
    def delta_size(self) -> int:
        """Mutations since the last compaction: inserts + deletes (deleting
        a delta insert counts both)."""
        with self._lock:
            return len(self._delta_ids) + len(self._tombstones)

    @property
    def compactions(self) -> int:
        """How many compactions have been installed."""
        return self._compactions

    @property
    def live_polygon_ids(self) -> list[int]:
        with self._lock:
            return [
                pid
                for pid, polygon in enumerate(self._polygons)
                if polygon is not None and pid not in self._tombstones
            ]

    @property
    def num_polygons(self) -> int:
        """Live polygon count (holes and tombstones excluded)."""
        return len(self.live_polygon_ids)

    @property
    def num_cells(self) -> int:
        with self._lock:
            return self._base.num_cells + self._delta_covering.num_cells

    @property
    def size_bytes(self) -> int:
        return int(self._view.store.size_bytes)

    @property
    def timings(self) -> BuildTimings:
        return self._base.timings

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "num_polygons": self.num_polygons,
                "version": self._version,
                "base_version": self._base.version,
                "delta_size": self.delta_size,
                "delta_inserts": len(self._delta_ids),
                "tombstones": len(self._tombstones),
                "compactions": self._compactions,
                "compact_threshold": self._compact_threshold,
                "num_cells": self.num_cells,
            }
