"""High-level facade: build a polygon index and join points against it.

:class:`PolygonIndex` wires the whole pipeline together:

1. compute per-polygon coverings and interior coverings (S2-analog coverer),
2. merge them into a super covering (precision-preserving conflict
   resolution),
3. optionally refine boundary cells to a precision bound (approximate mode)
   and/or train with historical points (accurate mode),
4. index the cells in an Adaptive Cell Trie.

The pipeline stages are exposed as free functions (:func:`cover_polygons`,
:func:`build_pipeline`, :func:`build_store`) so every build path — a full
offline build, the delta-overlay builds of
:class:`~repro.core.dynamic.DynamicPolygonIndex`, and its compaction —
runs the exact same code instead of re-implementing it.

A built index never changes: polygons come and go through
``DynamicPolygonIndex.insert`` / ``delete``, whose compaction builds a
new snapshot, and ``retrained`` builds another.  A rebuild pays for what
changed.  A covering is a pure function of (geometry, options), so
:func:`cover_polygons` keeps each polygon's last coverings on the
polygon object (``Polygon._cover_cache``, beside its refinement bucket
rows in ``Polygon._refine_cache``): across inserts, compactions and
``retrain`` a surviving polygon is never re-covered or re-bucketed, and
:class:`BuildTimings` ``.covered`` says how many polygons a build did
have to cover.  Precision refinement keeps no memo: it classifies a
surviving polygon's cells again.

A built index is read through one door: :meth:`ProbeView.join` checks the
batch, computes the leaf cell ids and hands the view's own fields to the
one join driver (:func:`repro.core.joins.join_batch`);
``PolygonIndex.join`` and ``DynamicPolygonIndex.join`` are that call on
their current view.

Every built index is stamped with a process-wide monotonically increasing
``version`` (see :func:`next_index_version`), which is what the serving
layer keys its caches on and how a snapshot swap is made unambiguous.

Typical usage::

    index = PolygonIndex.build(polygons, precision_meters=4.0)
    result = index.join(lats, lngs)                  # approximate
    result = index.join(lats, lngs, exact=True)      # accurate
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cells.cellid import CellId
from repro.cells.coverer import CovererOptions, batch_coverings
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.act import AdaptiveCellTrie
from repro.core.flat import FlatSnapshot, _attach_refiner_table
from repro.core.joins import JoinResult, check_batch, join_batch
from repro.core.precision import refine_to_precision
from repro.core.refs import validate_polygon_id
from repro.core.super_covering import SuperCovering, build_super_covering
from repro.core.training import TrainingReport, train_super_covering
from repro.geo.polygon import Polygon
from repro.geo.refine import RefinementEngine
from repro.util.timing import Timer

if TYPE_CHECKING:
    from repro.core.dynamic import OverlayCellStore
    from repro.core.lookup_table import LookupTable

#: The paper's default configuration for individual polygon approximations
#: (Section 4, "Polygon Approximations"), with levels capped at 28 so key
#: extension works for every fanout (see repro.cells.coverer).
DEFAULT_COVERING_OPTIONS = CovererOptions(max_cells=128, max_level=28)
DEFAULT_INTERIOR_OPTIONS = CovererOptions(max_cells=256, max_level=20)

# ----------------------------------------------------------------------
# Index versioning
# ----------------------------------------------------------------------

_version_lock = threading.Lock()
_version_counter = itertools.count(1)


def next_index_version() -> int:
    """The next process-wide index version (monotonically increasing).

    Every built snapshot — full build, delta rebuild, compaction, load from
    disk — gets a strictly larger version than anything built before it, so
    "newer" is always well-defined when the serving layer swaps snapshots.
    """
    with _version_lock:
        return next(_version_counter)


def ensure_version_floor(version: int) -> None:
    """Make future versions exceed ``version`` (used when loading files)."""
    global _version_counter
    with _version_lock:
        current = next(_version_counter)
        _version_counter = itertools.count(max(current, version + 1))


@dataclass
class BuildTimings:
    """Build-phase timing breakdown (reported in the paper's Table 1)."""

    individual_coverings_seconds: float = 0.0
    super_covering_seconds: float = 0.0
    refinement_seconds: float = 0.0
    training_seconds: float = 0.0
    store_build_seconds: float = 0.0
    #: Polygons whose covering was computed, not reused from their memo.
    covered: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.individual_coverings_seconds
            + self.super_covering_seconds
            + self.refinement_seconds
            + self.training_seconds
            + self.store_build_seconds
        )


# ----------------------------------------------------------------------
# The reusable build pipeline
# ----------------------------------------------------------------------


def _frozen_ids(cells: Sequence[CellId]) -> np.ndarray:
    ids = np.fromiter((cell.id for cell in cells), dtype=np.uint64, count=len(cells))
    ids.setflags(write=False)
    return ids


def _cover_polygons(
    polygons: Sequence[Polygon],
    covering_options: CovererOptions,
    interior_options: CovererOptions,
) -> tuple[list[tuple[list[CellId], list[CellId]]], int]:
    """:func:`cover_polygons` plus how many polygons it had to cover.

    The memo's only reader and writer.  An entry is one immutable tuple
    ``(covering options, interior options, covering ids, interior ids)``
    (read-only ``uint64`` arrays, <= 384 ids with the defaults) for the
    last options pair the polygon was covered with; another pair re-covers
    and replaces it.  A benign race like ``Polygon._refine_cache``: two
    threads covering one polygon compute equal entries and one store wins;
    every caller builds its result from the entry it read once or from
    what it computed itself, so a concurrent replacement under other
    options cannot reach it.
    """
    options = (covering_options, interior_options)
    coverings: list = [None] * len(polygons)
    misses = []
    for row, polygon in enumerate(polygons):
        entry = polygon._cover_cache
        if entry is None or entry[:2] != options:
            misses.append(row)
        else:
            # New lists and cells per call: they are the caller's.
            coverings[row] = (
                list(map(CellId, entry[2].tolist())),
                list(map(CellId, entry[3].tolist())),
            )
    if misses:
        # One batched call for all misses: polygons are covered
        # independently, so block boundaries cannot change a covering.
        specs = [(covering_options, False), (interior_options, True)]
        fresh = batch_coverings([polygons[row] for row in misses], specs)
        for row, (covering, interior) in zip(misses, fresh):
            polygons[row]._cover_cache = (
                *options,
                _frozen_ids(covering),
                _frozen_ids(interior),
            )
            coverings[row] = (covering, interior)
    return coverings, len(misses)


def cover_polygons(
    polygons: Sequence[Polygon],
    covering_options: CovererOptions = DEFAULT_COVERING_OPTIONS,
    interior_options: CovererOptions = DEFAULT_INTERIOR_OPTIONS,
) -> list[tuple[list[CellId], list[CellId]]]:
    """Stage 1: every polygon's covering and interior covering, batched.

    A polygon covered with these options before (by any build, insert or
    compaction, while the object lives) is not covered again: the
    coverings come from its memo, in order with the newly covered ones.
    The memo is keyed by the options pair, lives on the polygon object
    and is never serialized.
    """
    return _cover_polygons(polygons, covering_options, interior_options)[0]


def cover_polygon(
    polygon: Polygon,
    covering_options: CovererOptions = DEFAULT_COVERING_OPTIONS,
    interior_options: CovererOptions = DEFAULT_INTERIOR_OPTIONS,
) -> tuple[list[CellId], list[CellId]]:
    """Stage 1 for one polygon: its covering and interior covering."""
    return cover_polygons([polygon], covering_options, interior_options)[0]


@dataclass
class BuildArtifacts:
    """Everything one run of :func:`build_pipeline` produces."""

    super_covering: SuperCovering
    store: AdaptiveCellTrie
    timings: BuildTimings
    training_report: TrainingReport | None


def build_store(
    super_covering: SuperCovering, *, fanout_bits: int = 8
) -> AdaptiveCellTrie:
    """Stage 4: index a super covering in an ACT (with its own lookup table)."""
    return AdaptiveCellTrie(super_covering, fanout_bits=fanout_bits)


def build_pipeline(
    polygons_with_ids: Iterable[tuple[int, Polygon]],
    polygons_by_id: Sequence[Polygon | None],
    *,
    precision_meters: float | None = None,
    covering_options: CovererOptions = DEFAULT_COVERING_OPTIONS,
    interior_options: CovererOptions = DEFAULT_INTERIOR_OPTIONS,
    training_cell_ids: np.ndarray | None = None,
    training_max_cells: int | None = None,
    training_order: str = "arrival",
    fanout_bits: int = 8,
) -> BuildArtifacts:
    """Run covering → super covering → refinement/training → store.

    The one build path shared by ``PolygonIndex.build``, the delta-overlay
    builds of the dynamic index, and compaction.  ``polygons_with_ids``
    names the polygons to index with their (stable, possibly sparse) ids;
    ``polygons_by_id`` is the id-indexable sequence refinement and training
    consult — entries for ids not being indexed may be ``None``.
    ``training_order`` selects the split schedule under a training budget
    (``"hot"`` spends the budget on the hottest cells; see
    :func:`repro.core.training.train_super_covering`).
    """
    with Timer() as cover_timer:
        indexed = [
            (validate_polygon_id(pid), polygon) for pid, polygon in polygons_with_ids
        ]
        coverings, covered = _cover_polygons(
            [polygon for _, polygon in indexed], covering_options, interior_options
        )
        per_polygon = [
            (pid, covering, interior)
            for (pid, _), (covering, interior) in zip(indexed, coverings)
        ]
    with Timer() as merge_timer:
        super_covering = build_super_covering(per_polygon)
    timings = BuildTimings(
        individual_coverings_seconds=cover_timer.seconds,
        super_covering_seconds=merge_timer.seconds,
        covered=covered,
    )
    if precision_meters is not None:
        with Timer() as refine_timer:
            refine_to_precision(super_covering, polygons_by_id, precision_meters)
        timings.refinement_seconds = refine_timer.seconds
    training_report = None
    if training_cell_ids is not None:
        with Timer() as train_timer:
            training_report = train_super_covering(
                super_covering,
                polygons_by_id,
                training_cell_ids,
                max_cells=training_max_cells,
                order=training_order,
            )
        timings.training_seconds = train_timer.seconds
    with Timer() as store_timer:
        store = build_store(super_covering, fanout_bits=fanout_bits)
    timings.store_build_seconds = store_timer.seconds
    return BuildArtifacts(
        super_covering=super_covering,
        store=store,
        timings=timings,
        training_report=training_report,
    )


@dataclass(frozen=True)
class ProbeView:
    """One immutable, internally consistent probe snapshot of an index.

    Every read goes through this view: ``store`` holds its own lookup
    table, ``polygons`` is the polygon sequence its rows reference, and
    ``version`` identifies the whole bundle — so a concurrent mutation or
    snapshot swap can never mix fields from two generations.  ``store``
    is the index's ACT, or the
    :class:`~repro.core.dynamic.OverlayCellStore` over two of them on a
    dynamic index with pending mutations.  ``refiner`` is the snapshot's
    refinement engine (one per view; the packed bucket rows its table
    concatenates are memoized on the polygon objects, so overlapping
    snapshots share them).
    """

    version: int
    store: AdaptiveCellTrie | OverlayCellStore
    polygons: tuple[Polygon | None, ...]
    max_cell_level: int
    refiner: RefinementEngine

    @property
    def lookup_table(self) -> LookupTable:
        """The store's lookup table (read-only; the store holds it)."""
        return self.store.lookup_table

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
        """Join points against this snapshot.

        The one door ``PolygonIndex.join`` and ``DynamicPolygonIndex.join``
        read through: check the batch, compute the leaf cell ids unless
        the caller brought them, and run the join driver over the view's
        own fields (with ``num_threads > 1``, morsels of
        :data:`~repro.core.morsels.OFFLINE_MORSEL_POINTS` points on a pool
        that lives for this call).
        """
        lats, lngs, cell_ids = check_batch(lats, lngs, cell_ids)
        if cell_ids is None:
            cell_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        return join_batch(
            self.store,
            cell_ids,
            self.polygons,
            lngs,
            lats,
            exact=exact,
            materialize=materialize,
            engine=self.refiner,
            num_threads=num_threads,
        )


class PolygonIndex:
    """An immutable point-polygon join index over a set of polygons.

    ``polygons`` is a tuple indexable by polygon id; slots may be ``None``
    when the index was produced by compacting a dynamic index whose ids
    are sparse (deleted ids leave holes so surviving ids stay stable).
    No method changes what an index answers: a polygon set that grows or
    shrinks is a :class:`~repro.core.dynamic.DynamicPolygonIndex`, and a
    served layer changes by ``swap_layer`` to a new snapshot (for
    instance :meth:`retrained`).

    An index attached by :func:`~repro.core.flat.attach_index` holds the
    ``snapshot`` it serves from: its store, lookup table, super covering,
    polygon geometry and refinement buckets are views into the snapshot's
    blob.
    """

    def __init__(
        self,
        polygons: Sequence[Polygon | None],
        super_covering: SuperCovering,
        store: AdaptiveCellTrie,
        *,
        timings: BuildTimings,
        precision_meters: float | None,
        training_report: TrainingReport | None,
        version: int | None = None,
        snapshot: FlatSnapshot | None = None,
    ):
        if not isinstance(store, AdaptiveCellTrie):
            # The one check at the door: everything behind it (insertion,
            # retraining, flat snapshots, serialization, sharding) reads
            # the trie's node pool and fanout directly.
            raise TypeError(
                "a PolygonIndex is stored in an AdaptiveCellTrie, got "
                f"{type(store).__name__}; the baseline cell stores join "
                "through accurate_join / approximate_join over "
                "index.super_covering"
            )
        self.polygons = tuple(polygons)
        self.super_covering = super_covering
        self.snapshot = snapshot
        self.store = store
        self.timings = timings
        self.precision_meters = precision_meters
        self.training_report = training_report
        self.version = next_index_version() if version is None else version
        self._probe_view: ProbeView | None = None
        # What a DynamicPolygonIndex over this base covers its inserts
        # and compactions with.  build() and compaction record the
        # options they ran with; an index loaded from a plain file or
        # attached to a snapshot keeps the defaults (those formats do not
        # carry them).
        self.covering_options = DEFAULT_COVERING_OPTIONS
        self.interior_options = DEFAULT_INTERIOR_OPTIONS

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

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
    ) -> "PolygonIndex":
        """Build an index.

        Parameters
        ----------
        precision_meters:
            If given, boundary cells are refined until any false positive of
            the approximate join lies within this distance of its polygon.
        training_cell_ids:
            Historical point cell ids used to adapt the index to the
            expected query distribution (accurate mode, Section 3.3.1),
            split in arrival order as the paper trains;
            :meth:`retrained` splits hottest-first.
        fanout_bits:
            Bits consumed per ACT level (the paper's ACT1/2/4 = 2/4/8).
        """
        artifacts = build_pipeline(
            enumerate(polygons),
            polygons,
            precision_meters=precision_meters,
            covering_options=covering_options,
            interior_options=interior_options,
            training_cell_ids=training_cell_ids,
            training_max_cells=training_max_cells,
            fanout_bits=fanout_bits,
        )
        index = cls(
            polygons,
            artifacts.super_covering,
            artifacts.store,
            timings=artifacts.timings,
            precision_meters=precision_meters,
            training_report=artifacts.training_report,
        )
        index.covering_options = covering_options
        index.interior_options = interior_options
        return index

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def cell_ids_for(self, lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
        """Leaf cell ids for point arrays (the paper's preprocessing step)."""
        return cell_ids_from_lat_lng_arrays(lats, lngs)

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
        """Join points against the indexed polygons.

        ``exact=False`` runs the approximate join (no PIP tests, false
        positives bounded by the build-time precision bound);
        ``exact=True`` runs the accurate join with a refinement phase.
        """
        return self.probe_view().join(
            lats,
            lngs,
            exact=exact,
            materialize=materialize,
            cell_ids=cell_ids,
            num_threads=num_threads,
        )

    def containing_polygons(self, lat: float, lng: float, exact: bool = True) -> list[int]:
        """Polygon ids covering a single point (scalar convenience query)."""
        result = self.join(
            np.asarray([lat]), np.asarray([lng]), exact=exact, materialize=True
        )
        assert result.pair_polygons is not None
        return sorted(int(p) for p in result.pair_polygons)

    def max_cell_level(self) -> int:
        """Deepest indexed cell level (bounds the probe's trie descent)."""
        return self.super_covering.max_level()

    def probe_view(self) -> ProbeView:
        """The index's one :class:`ProbeView`, built on first use."""
        if self._probe_view is None:
            # An attached index adopts the snapshot's packed bucket table
            # instead of re-bucketing every polygon.
            table = (
                _attach_refiner_table(self.snapshot.buffers)
                if self.snapshot is not None
                else None
            )
            self._probe_view = ProbeView(
                version=self.version,
                store=self.store,
                polygons=self.polygons,
                max_cell_level=self.max_cell_level(),
                refiner=RefinementEngine(self.polygons, table=table),
            )
        return self._probe_view

    # ------------------------------------------------------------------
    # New snapshots (the index itself never changes)
    # ------------------------------------------------------------------

    def retrained(
        self,
        training_cell_ids: np.ndarray,
        *,
        max_cells: int | None = None,
    ) -> "PolygonIndex":
        """A fresh snapshot of this index trained on new historical points,
        hottest cells first (a budget goes where the traffic is).

        The live index is untouched: training runs on a *copy* of the
        super covering and the copy is indexed into a new store with a new
        (strictly larger) version, ready for an atomic
        ``JoinService.swap_layer``.  This is the static-snapshot half of
        the online adaptation loop; ``DynamicPolygonIndex.retrain`` is the
        delta-overlay half (it rides the compaction path instead, folding
        pending mutations into the retrained snapshot).

        Join results are unchanged by construction — training only splits
        cells, which never alters any point's reference set.
        """
        covering = self.super_covering.copy()
        with Timer() as train_timer:
            report = train_super_covering(
                covering,
                self.polygons,
                np.asarray(training_cell_ids, dtype=np.uint64),
                max_cells=max_cells,
                order="hot",
            )
        with Timer() as store_timer:
            store = build_store(covering, fanout_bits=self.store.fanout_bits)
        timings = BuildTimings(
            training_seconds=train_timer.seconds,
            store_build_seconds=store_timer.seconds,
        )
        index = PolygonIndex(
            self.polygons,
            covering,
            store,
            timings=timings,
            precision_meters=self.precision_meters,
            training_report=report,
        )
        index.covering_options = self.covering_options
        index.interior_options = self.interior_options
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_polygons(self) -> int:
        """Live polygon count (holes from compacted deletes excluded)."""
        return sum(1 for polygon in self.polygons if polygon is not None)

    @property
    def num_cells(self) -> int:
        return self.super_covering.num_cells

    @property
    def size_bytes(self) -> int:
        return int(self.store.size_bytes)

    def describe(self) -> dict[str, object]:
        return {
            "num_polygons": self.num_polygons,
            "num_cells": self.num_cells,
            "precision_meters": self.precision_meters,
            "size_bytes": self.size_bytes,
            "build_seconds": self.timings.total_seconds,
            "version": self.version,
            "store": self.store.describe(),
        }
