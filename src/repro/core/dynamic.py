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
* **probes** merge base and delta rows and mask tombstones inside
  :class:`OverlayCellStore`, which probes to rows of its own row table
  like any store — the base's rows, decoded once with the base, followed
  by the rows it merged, each decoded once when it is appended — so the
  one join driver and its two kernels (and everything layered on them:
  caching, morsel parallelism, the serving facade) run unchanged and
  return results identical to a fresh build over the current polygon
  set;
* **compaction** runs the full build pipeline over the live set into a
  fresh versioned snapshot and installs it with an empty delta — inline,
  under the index's lock, once the delta holds ``compact_threshold``
  mutations or whenever :meth:`~DynamicPolygonIndex.compact` /
  :meth:`~DynamicPolygonIndex.retrain` is called.  A writer waits behind
  it; a reader never takes the lock: every mutation publishes one
  immutable :class:`~repro.core.builder.ProbeView`, and a join reads the
  view that was current when it started.  Compaction pays for what
  changed: a surviving polygon is never re-covered or re-bucketed (its
  coverings and bucket rows are memoized on the polygon object — an
  insert's covering is the one its compaction reuses; precision
  refinement classifies its cells again), and the ACT is bulk-built from
  the sorted covering in linear passes.  The ``compaction`` event says what the rebuild cost
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
from repro.core.lookup_table import LookupTable
from repro.core.precision import refine_to_precision
from repro.core.refs import PolygonRef, merge_refs, validate_polygon_id
from repro.core.rows import RowStore, RowTable
from repro.core.super_covering import SuperCovering
from repro.geo.polygon import Polygon
from repro.geo.refine import RefinementEngine


class OverlayCellStore(RowStore):
    """Merge a base store and a delta store behind one ``probe_rows`` protocol.

    The overlay's row table is the base store's rows followed by the rows
    it merged itself, so a lane a write cannot change keeps its base row:
    one whose delta row is a miss and whose base row references no
    tombstoned polygon (a per-overlay ``dead_row`` flag, set once).  The
    other lanes merge each distinct ``(base row, delta row)`` pair once:
    the two rows' references are merged, tombstoned polygon ids masked,
    and the merged set is encoded against the overlay's own lookup table
    and appended as a new row (an empty set is the miss row 0).  The
    table continues the base's lookup table
    (:meth:`~repro.core.lookup_table.LookupTable.extending`), so a base
    row's entry decodes the same in it, and downstream drivers see one
    store, holding its own lookup table, exactly as if the index had been
    built over the merged polygon set.

    The table only grows, under the memo lock, and is published before
    the memo entries that point into it: a reader reads ``rows`` after
    its probe and always holds every row the probe returned.  The store
    is otherwise immutable with respect to the overlay state it was
    built from (tombstones are copied, the delta store is never mutated
    after construction), so a reader holding an old overlay keeps getting
    consistent answers while the dynamic index moves on.
    """

    def __init__(
        self,
        base_store: AdaptiveCellTrie,
        delta_store: AdaptiveCellTrie | None,
        tombstones: Sequence[int] | frozenset[int],
    ):
        self._base_store = base_store
        self._delta_store = delta_store
        self._tombstones = frozenset(tombstones)
        base_rows = base_store.rows
        #: Base rows referencing a tombstoned polygon: the lanes to merge
        #: besides those with a delta hit.
        self._dead_row = np.zeros(len(base_rows), dtype=bool)
        dead_refs = np.flatnonzero(np.isin(base_rows.pids, list(self._tombstones)))
        self._dead_row[np.searchsorted(base_rows.starts, dead_refs, side="right") - 1] = True
        #: What a rebuild over this view indexes with (the base's fanout).
        self.fanout_bits = base_store.fanout_bits
        #: Merged entries are encoded here; probe results must be decoded
        #: against THIS table, never the delta's.
        self.lookup_table = LookupTable.extending(base_store.lookup_table)
        self.rows = base_rows  #: guarded_by(_memo_lock, writes)
        #: (base row, delta row) -> merged row.
        self._memo: dict[tuple[int, int], int] = {}  #: guarded_by(_memo_lock, writes)
        self._memo_lock = threading.Lock()

    def probe_rows(self, query_ids: np.ndarray) -> np.ndarray:
        query_ids = np.asarray(query_ids, dtype=np.uint64)
        rows = self._base_store.probe_rows(query_ids)
        changed = self._dead_row[rows]
        if self._delta_store is None:
            delta_rows = np.zeros(len(rows), dtype=np.intp)
        else:
            delta_rows = self._delta_store.probe_rows(query_ids)
            changed |= delta_rows != 0
        lanes = np.flatnonzero(changed)
        if lanes.size:
            rows[lanes] = self._merge_lanes(rows[lanes], delta_rows[lanes])
        return rows

    def _merge_lanes(self, base_rows: np.ndarray, delta_rows: np.ndarray) -> np.ndarray:
        # Merge each distinct (base, delta) row pair exactly once: the
        # number of distinct pairs is bounded by the covering sizes, not by
        # the batch size, so the python-level merge stays off the hot path.
        width = 1 if self._delta_store is None else len(self._delta_store.rows)
        keys, inverse = np.unique(base_rows * width + delta_rows, return_inverse=True)
        pairs = [divmod(key, width) for key in keys.tolist()]
        memo = self._memo
        todo = [pair for pair in pairs if pair not in memo]
        if todo:
            merged = [self._merged_refs(*pair) for pair in todo]
            with self._memo_lock:
                fresh = [(pair, refs) for pair, refs in zip(todo, merged) if pair not in memo]
                entries = [self.lookup_table.encode(refs) for _, refs in fresh if refs]
                table = self.rows
                if entries:
                    self.rows = table.extended(
                        RowTable.decode(np.asarray(entries, dtype=np.uint64), self.lookup_table)
                    )
                next_row = len(table)
                for pair, refs in fresh:
                    memo[pair] = next_row if refs else 0
                    next_row += bool(refs)
        merged_rows = np.fromiter((memo[pair] for pair in pairs), dtype=np.intp, count=len(pairs))
        return merged_rows[inverse]

    def _merged_refs(self, base_row: int, delta_row: int) -> tuple[PolygonRef, ...]:
        """The live references of a base row and a delta row, merged."""
        refs: list[PolygonRef] = []
        for store, row in ((self._base_store, base_row), (self._delta_store, delta_row)):
            if row:
                pids, interior = store.rows.refs(row)
                refs.extend(map(PolygonRef, pids.tolist(), interior.tolist()))
        return tuple(
            ref for ref in merge_refs(refs) if ref.polygon_id not in self._tombstones
        )

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
                timings=artifacts.timings,
                precision_meters=self.precision_meters,
                training_report=artifacts.training_report,
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
    ) -> PolygonIndex:
        """Retrain on new historical points: a compaction under a new
        training configuration.

        The configuration (ids, cell budget, and the hottest-first split
        schedule of :meth:`PolygonIndex.retrained`) replaces the
        current one and governs every later compaction too; pending delta
        mutations are folded into the trained snapshot.  Runs inline, like
        :meth:`compact` (the adaptation controller calls it from its own
        worker thread).  Returns the installed base.
        """
        with self._lock:
            self._training_cell_ids = np.asarray(training_cell_ids, dtype=np.uint64)
            self._training_max_cells = max_cells
            self._training_order = "hot"
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
            max_level = self._base.max_cell_level()
            # Clean base: reuse the snapshot's engine so its bucket table
            # is assembled once per base generation, not per refresh.
            refiner = self._base.probe_view().refiner
        else:
            store = OverlayCellStore(
                self._base.store, self._delta_store, self._tombstones
            )
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
        return self._view.join(
            lats,
            lngs,
            exact=exact,
            materialize=materialize,
            cell_ids=cell_ids,
            num_threads=num_threads,
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
