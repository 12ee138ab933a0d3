"""The online join service facade.

:class:`JoinService` turns the offline join kernel into a request-serving
hot path.  It accepts three shapes of work:

* ``lookup``/``submit`` — single-point requests from many client threads,
  coalesced into micro-batches by a :class:`~repro.serve.batching.MicroBatcher`
  and answered with the polygon ids containing the point;
* ``join`` — an explicit point batch, joined by the same driver
  (:func:`repro.core.joins.join_batch`) an offline ``index.join`` runs
  (large batches split across a persistent
  :class:`~repro.core.morsels.MorselExecutor`);
* ``join_layers`` — a batch fanned out to several named polygon layers,
  computing the leaf cell ids once and reusing them per layer.

That request surface is written once, in :class:`ServiceFront`: layer
routing, the observability wiring, the latency recorder, the
micro-batcher and the one envelope around every request — batch check →
timer → ``dispatch`` span → dispatch → recorder and meters.
A concrete service supplies what
happens *inside* a dispatch — :class:`JoinService` resolves the batch
through the layer's hot-cell table and joins the resolved entries,
:class:`~repro.serve.sharded.ShardedJoinService` scatters to its shard
workers, which compute them, and gathers — plus its own ``stats``,
layer management and lifecycle.

Every :class:`JoinService` dispatch reads its layer through one immutable
:class:`~repro.core.builder.ProbeView` (store, lookup table, polygons and
version captured together) and first resolves the batch through the
layer's :class:`~repro.serve.cache.HotCellCache`, keyed by each point's
coordinates: a repeated point takes its leaf id and tagged entry from
the table, and only the misses run the cell-id kernel (unless the caller
brought ids) and the view's store probe.  The driver then decodes and
refines the resolved entries.  The service registers exactly one table
per layer — that of the newest version it has seen — so results are
bit-identical to calling ``PolygonIndex.join`` directly, skewed
workloads skip most cell-id computations and trie descents, and a
snapshot swap (:meth:`JoinService.swap_layer`) can never serve an entry
cached for a previous version.  With adaptation on, the driver's
``observe`` hook is the layer's
:class:`~repro.core.adaptive.LayerTelemetry`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from functools import partial
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.core.adaptive import AdaptationPolicy, AdaptiveController
from repro.core.builder import ProbeView
from repro.core.joins import JoinResult, check_batch, join_batch
from repro.core.morsels import MorselExecutor
from repro.obs import DispatchMeters, Observability
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.batching import LookupRequest, MicroBatcher
from repro.serve.cache import CacheStats, HotCellCache
from repro.serve.router import JoinableIndex, LayerRouter
from repro.serve.stats import LatencyRecorder, LayerStatus, ServiceStats
from repro.util.timing import Timer

#: The default single-layer name used when a bare index is served.
DEFAULT_LAYER = "default"


class ServiceFront:
    """The request surface every join service shares.

    Owns the layer router, the ``obs`` → tracer / events / meters
    wiring, the latency recorder and the micro-batcher, and defines
    ``join`` / ``join_layers`` / ``submit`` / ``lookup`` once.  Every
    request passes through :meth:`_serve`, which checks the batch and
    runs ``self._dispatch(name, index, cell_ids, lats, lngs, exact,
    materialize)`` — ``cell_ids`` is ``None`` unless the caller brought
    them — inside one timed ``dispatch`` span; subclasses implement
    that, ``_check_open``, ``stats``, ``swap_layer``, ``add_layer`` and
    ``close``.  The base takes no lock of its own.
    """

    def __init__(
        self,
        layers: JoinableIndex | Mapping[str, JoinableIndex],
        *,
        default_layer: str | None,
        latency_window: int,
        obs: Observability | None,
    ):
        if not isinstance(layers, Mapping):
            layers = {DEFAULT_LAYER: layers}
        self._router = LayerRouter(layers, default=default_layer)
        self._obs = obs
        self._tracer: Tracer = obs.tracer if obs is not None else NULL_TRACER
        self._events = obs.events if obs is not None else None
        self._metrics = obs.metrics if obs is not None else None
        self._meters = DispatchMeters(obs.metrics) if obs is not None else None
        self._recorder = LatencyRecorder(window=latency_window)

    def _start_batcher(self, max_batch: int, max_wait_ms: float) -> None:
        """Start the lookup coalescer: the LAST step of a subclass's
        ``__init__``, so a construction that fails leaves no thread behind
        (and none is alive while shard workers are being created)."""
        self._batcher = MicroBatcher(
            self._flush_lookups,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            metrics=self._metrics,
        )

    @property
    def layers(self) -> tuple[str, ...]:
        return self._router.names

    @property
    def obs(self) -> Observability | None:
        """The observability bundle, or ``None`` when telemetry is off."""
        return self._obs

    @property
    def tracer(self) -> Tracer:
        """The phase tracer (the shared disabled tracer when ``obs=None``)."""
        return self._tracer

    def _dispatch(
        self,
        name: str,
        index: JoinableIndex,
        cell_ids: np.ndarray | None,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> tuple[JoinResult, np.ndarray]:
        """Join one batch against one resolved layer (the subclass's
        part); returns the result and the batch's leaf cell ids, computed
        by whoever is placed to when the caller brought none."""
        raise NotImplementedError

    def _check_open(self) -> None:
        """Raise ``RuntimeError`` unless the service accepts requests."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def _serve(
        self,
        name: str,
        index: JoinableIndex,
        lats: np.ndarray,
        lngs: np.ndarray,
        cell_ids: np.ndarray | None,
        exact: bool,
        materialize: bool,
        *,
        span_meta: Mapping[str, object],
        requests: int = 1,
        then: Callable[[JoinResult], None] | None = None,
    ) -> tuple[JoinResult, np.ndarray]:
        """The envelope of every request; returns the result and the ids.

        Checks the batch (the one validation on the served path — a
        sharded front needs it before it scatters), then, inside one
        timer and one ``dispatch`` span, dispatches (which computes the
        leaf cell ids unless the caller brought them) and runs ``then``
        (what a lookup flush does with the pairs); the recorder and the
        meters see the timed whole.
        """
        lats, lngs, cell_ids = check_batch(lats, lngs, cell_ids)
        with Timer() as timer:
            with self._tracer.dispatch(
                "dispatch", layer=name, points=len(lats), **span_meta
            ):
                result, cell_ids = self._dispatch(
                    name, index, cell_ids, lats, lngs, exact, materialize
                )
                if then is not None:
                    then(result)
        self._recorder.record(
            requests=requests,
            points=len(lats),
            pairs=result.num_pairs,
            seconds=timer.seconds,
        )
        if self._meters is not None:
            self._meters.observe(result, timer.seconds)
        return result, cell_ids

    # ------------------------------------------------------------------
    # Single-point path (micro-batched)
    # ------------------------------------------------------------------

    def submit(
        self,
        lat: float,
        lng: float,
        *,
        layer: str | None = None,
        exact: bool = True,
    ) -> Future:
        """Enqueue a lookup; resolves to the sorted containing polygon ids.

        Defaults to the accurate join, matching
        ``PolygonIndex.containing_polygons``; pass ``exact=False`` for the
        approximate candidate set (ids whose covering cells contain the
        point, within the build-time precision bound).
        """
        self._check_open()
        # Resolve now: fails fast on unknown layers, and canonicalizes
        # layer=None to the default name so both coalesce into one group.
        name, _ = self._router.resolve(layer)
        return self._batcher.submit(
            LookupRequest(lat=float(lat), lng=float(lng), layer=name, exact=exact)
        )

    def lookup(
        self,
        lat: float,
        lng: float,
        *,
        layer: str | None = None,
        exact: bool = True,
    ) -> list[int]:
        """Blocking single-point lookup (rides the micro-batcher).

        Returns the sorted ids of polygons containing the point (accurate
        join by default, like ``PolygonIndex.containing_polygons``).
        """
        return self.submit(lat, lng, layer=layer, exact=exact).result()

    def _flush_lookups(
        self, layer: str | None, exact: bool, requests: Sequence[LookupRequest]
    ) -> None:
        """Answer one coalesced micro-batch with a single vectorized join."""
        name, index = self._router.resolve(layer)
        lats = np.fromiter((r.lat for r in requests), np.float64, len(requests))
        lngs = np.fromiter((r.lng for r in requests), np.float64, len(requests))
        per_point: list[list[int]] = [[] for _ in requests]

        def scatter(result: JoinResult) -> None:
            with self._tracer.span("scatter"):
                for point, pid in zip(
                    result.pair_points.tolist(),
                    result.pair_polygons.tolist(),
                ):
                    per_point[point].append(int(pid))

        self._serve(
            name, index, lats, lngs, None, exact, True,
            span_meta={"kind": "lookup"}, requests=len(requests), then=scatter,
        )
        for request, pids in zip(requests, per_point):
            request.future.set_result(sorted(pids))

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------

    def join(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        *,
        layer: str | None = None,
        exact: bool = False,
        materialize: bool = False,
        cell_ids: np.ndarray | None = None,
    ) -> JoinResult:
        """Join a point batch against one layer.

        Identical semantics (and bit-identical counts) to
        ``PolygonIndex.join`` on the same points, whatever sits
        underneath (hot-cell cache, morsel threads, shard processes).
        ``cell_ids`` lets a caller that already has the points' leaf
        cell ids (a shard lane joins its share of the scatter ring)
        skip the recompute.
        """
        self._check_open()
        name, index = self._router.resolve(layer)
        result, _ = self._serve(
            name, index, lats, lngs, cell_ids, exact, materialize,
            span_meta={"exact": exact},
        )
        return result

    def join_layers(
        self,
        lats: np.ndarray,
        lngs: np.ndarray,
        *,
        layers: Sequence[str] | None = None,
        exact: bool = False,
    ) -> dict[str, JoinResult]:
        """Fan a batch out to several layers (``None`` = every layer).

        Leaf cell ids depend only on the coordinates, so they are computed
        once and shared across layers.
        """
        self._check_open()
        routed = self._router.select(layers)  # ONE registry snapshot
        lats = np.asarray(lats, dtype=np.float64)  # coerce once, not per layer
        lngs = np.asarray(lngs, dtype=np.float64)
        cell_ids = None
        results: dict[str, JoinResult] = {}
        for position, (name, index) in enumerate(routed):
            # One client-visible request for the whole fan-out; points
            # count per layer (each layer joins the full batch).
            results[name], cell_ids = self._serve(
                name, index, lats, lngs, cell_ids, exact, False,
                span_meta={"exact": exact},
                requests=1 if position == 0 else 0,
            )
        return results

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JoinService(ServiceFront):
    """An online point-polygon join service over one or more layers.

    Parameters
    ----------
    layers:
        Either a single index (served as layer ``"default"``) or a mapping
        of layer name to index.  Any :class:`JoinableIndex` works — plain
        :class:`PolygonIndex` snapshots and
        :class:`~repro.core.dynamic.DynamicPolygonIndex` instances alike.
    cache_cells:
        Size of each layer's hot-cell table in distinct points
        (rounded up to a power of two slots; 0 disables caching).
        See :mod:`repro.serve.cache` for the replacement policy.
    max_batch / max_wait_ms:
        Micro-batching knobs: flush when ``max_batch`` lookups are
        pending, or ``max_wait_ms`` after the first one.
    num_threads / morsel_size:
        Batches larger than one morsel are split across a persistent
        morsel executor when ``num_threads > 1``.
    adaptation:
        An :class:`~repro.core.adaptive.AdaptationPolicy` turns on the
        self-tuning loop: the join driver records each layer's
        refinement traffic, and a layer whose windowed solely-true-hit
        rate drops below the policy target is retrained on it in the
        background and swapped in without downtime.  ``None`` (default)
        disables both.
    latency_window:
        Dispatches held for the percentile window in ``stats()``.
    obs:
        An :class:`~repro.obs.Observability` bundle wires the telemetry
        plane in: dispatches open phase-tracer spans, a metrics registry
        counts points/pairs/PIP tests and feeds per-phase latency
        histograms, and swaps land in the structured event log.  ``None``
        (default) routes every instrumentation point to shared no-ops.
    """

    def __init__(
        self,
        layers: JoinableIndex | Mapping[str, JoinableIndex],
        *,
        default_layer: str | None = None,
        cache_cells: int = 4096,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        num_threads: int = 1,
        morsel_size: int = 1 << 14,
        latency_window: int = 8192,
        adaptation: AdaptationPolicy | None = None,
        obs: Observability | None = None,
    ):
        super().__init__(
            layers,
            default_layer=default_layer,
            latency_window=latency_window,
            obs=obs,
        )
        self._cache_cells = cache_cells
        self._adaptive = (
            AdaptiveController(
                adaptation,
                swap=self.swap_layer,
                events=self._events,
                metrics=self._metrics,
            )
            if adaptation is not None
            else None
        )
        self._attach_lock = threading.Lock()
        # One generation per layer: the hot-cell table of the newest
        # view version seen.  A swap or a dynamic-index mutation bumps
        # the version and replaces the entry, so stale cache entries are
        # unreachable by construction rather than by invalidation.
        #: guarded_by(_attach_lock, writes)
        self._generations: dict[str, tuple[int, HotCellCache]] = {}
        for name, index in self._router.items():
            self._table_for(name, index.probe_view())
        self._executor = (
            MorselExecutor(num_threads, morsel_size, metrics=self._metrics)
            if num_threads > 1
            else None
        )
        self._closed = False
        self._start_batcher(max_batch, max_wait_ms)

    def _table_for(self, name: str, view: ProbeView) -> HotCellCache:
        """The hot-cell table one dispatch resolves ``view`` through.

        The registered table when the versions match; a view newer than
        the registered one replaces it (new requests can never reach the
        retired generation again); a laggard dispatch still holding an
        *older* view gets a private table that is never registered — it
        keeps working through its own references — so exactly one
        generation per layer is registered, always the newest.
        """
        held = self._generations.get(name)
        if held is not None and held[0] == view.version:
            return held[1]
        with self._attach_lock:
            held = self._generations.get(name)
            if held is not None and held[0] == view.version:
                return held[1]
            table = HotCellCache(self._cache_cells)
            if held is None or view.version > held[0]:
                self._generations[name] = (view.version, table)
            return table

    # ------------------------------------------------------------------
    # Layer management
    # ------------------------------------------------------------------

    def add_layer(self, name: str, index: JoinableIndex) -> None:
        """Register an additional polygon layer on the live service."""
        self._router.add(name, index)
        view = index.probe_view()
        self._table_for(name, view)
        if self._events is not None:
            self._events.emit(
                "add_layer", layer=name, version=int(view.version)
            )

    def swap_layer(self, name: str, index: JoinableIndex) -> JoinableIndex:
        """Atomically replace a layer with a newer versioned snapshot.

        Requests in flight keep the snapshot (and cache generation) they
        already resolved; every request arriving after this call sees the
        new version.  Returns the replaced index.
        """
        previous = self._router.swap(name, index)
        view = index.probe_view()
        self._table_for(name, view)
        if self._events is not None:
            self._events.emit("swap", layer=name, version=int(view.version))
        return previous

    def cache(self, layer: str | None = None) -> HotCellCache:
        """The hot-cell cache of one layer's current probe view (a
        mutation may have outdated the registry: attached on demand)."""
        name, index = self._router.resolve(layer)
        return self._table_for(name, index.probe_view())

    # ------------------------------------------------------------------
    # Dispatch internals
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        name: str,
        index: JoinableIndex,
        cell_ids: np.ndarray | None,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> tuple[JoinResult, np.ndarray]:
        # One atomic snapshot for the whole dispatch: store, lookup table,
        # polygons and version always belong to the same index generation,
        # even if the layer is swapped or mutated mid-request; the table
        # is that generation's.  The batch is resolved here, once, so
        # morsel workers slice its entries instead of sharing the table.
        # The envelope already checked the batch.
        view = index.probe_view()
        cell_ids, entries = self._resolve(
            self._table_for(name, view), index, view, cell_ids, lats, lngs
        )
        observe = (
            partial(self._adaptive.telemetry_for(name).observe, view)
            if self._adaptive is not None
            else None
        )
        result = join_batch(
            view.store,
            view.lookup_table,
            cell_ids,
            view.polygons,
            lngs,
            lats,
            exact=exact,
            materialize=materialize,
            engine=view.refiner,
            executor=self._executor,
            tracer=self._tracer,
            observe=observe,
            entries=entries,
        )
        if self._adaptive is not None:
            self._adaptive.after_dispatch(name, index)
        return result, cell_ids

    def _resolve(
        self,
        table: HotCellCache,
        index: JoinableIndex,
        view: ProbeView,
        cell_ids: np.ndarray | None,
        lats: np.ndarray,
        lngs: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The batch's leaf ids and, when the table looked it up, entries.

        Looks the points up by their coordinates' bit patterns: hits take
        ``(leaf id, entry)`` from the table, and only the misses run the
        cell-id kernel (or take the ids the caller brought) and the
        store probe, unlocked, before they are written back.  The whole
        step is one ``cache_lookup`` span.  While the table stands aside
        (or is disabled) the batch's ids are computed as they would be
        without a table and the entries are ``None``: the driver probes.
        """
        lat_bits = lats.view(np.uint64)
        lng_bits = lngs.view(np.uint64)
        with Timer() as timer:
            looked = (
                table.lookup(lat_bits, lng_bits)
                if table.capacity and len(lats)
                else None
            )
            if looked is not None:
                leaf_ids, entries, missing, tick = looked
                if missing.size:
                    missed_ids = (
                        index.cell_ids_for(lats[missing], lngs[missing])
                        if cell_ids is None
                        else cell_ids[missing]
                    )
                    missed = view.store.probe(missed_ids)
                    leaf_ids[missing] = missed_ids
                    entries[missing] = missed
                    table.insert(
                        lat_bits[missing], lng_bits[missing], missed_ids, missed, tick
                    )
        if looked is None:
            if cell_ids is None:
                cell_ids = index.cell_ids_for(lats, lngs)
            return cell_ids, None
        self._tracer.emit(
            "cache_lookup", timer.seconds, keys=len(lats), misses=len(missing)
        )
        return leaf_ids, entries

    # ------------------------------------------------------------------
    # Observability & lifecycle
    # ------------------------------------------------------------------

    @property
    def adaptation(self) -> AdaptiveController | None:
        """The adaptation controller, or ``None`` when self-tuning is off."""
        return self._adaptive

    def stats(self) -> ServiceStats:
        """Immutable snapshot: latency percentiles, throughput, cache,
        each layer's live version and pending delta size, plus the
        adaptation loop's windowed STH rate and retrain counters."""
        with self._attach_lock:  # an attach may be mutating the dict
            generations = dict(self._generations)
        cache_stats: dict[str, CacheStats] = {
            name: table.stats() for name, (_version, table) in generations.items()
        }
        layer_status: dict[str, LayerStatus] = {}
        for name, index in self._router.items():
            layer_status[name] = LayerStatus(
                version=index.probe_view().version,
                delta_size=int(getattr(index, "delta_size", 0)),
                num_polygons=index.num_polygons,
                compactions=int(getattr(index, "compactions", 0)),
            )
        adaptation = self._adaptive.status() if self._adaptive is not None else {}
        return self._recorder.snapshot(cache_stats, layer_status, adaptation)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    def close(self) -> None:
        """Drain pending lookups and release worker threads."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        if self._executor is not None:
            self._executor.close()
        if self._adaptive is not None:
            self._adaptive.close()
