"""The online join service facade.

:class:`JoinService` turns the offline join kernel into a request-serving
hot path.  It accepts three shapes of work:

* ``lookup``/``submit`` — single-point requests from many client threads,
  coalesced into micro-batches by a :class:`~repro.serve.batching.MicroBatcher`
  and answered with the polygon ids containing the point;
* ``join`` — an explicit point batch, dispatched through the same
  vectorized ``approximate_join``/``accurate_join`` drivers the offline
  evaluation uses (large batches split across a
  :class:`~repro.core.morsels.MorselExecutor`, the driver the offline
  thread-parallel join runs on too);
* ``join_layers`` — a batch fanned out to several named polygon layers,
  computing the leaf cell ids once and reusing them per layer.

That request surface is written once, in :class:`ServiceFront`: layer
routing, the observability wiring, the latency recorder, the
micro-batcher and the timer → ``dispatch`` span → recorder → meters
envelope around every request.  A concrete service supplies what
happens *inside* a dispatch — :class:`JoinService` joins through the
layer's cached store, :class:`~repro.serve.sharded.ShardedJoinService`
scatters to its shard workers and gathers — plus its own ``stats``,
layer management and lifecycle.

Every :class:`JoinService` dispatch reads its layer through one immutable
:class:`~repro.core.builder.ProbeView` (store, lookup table, polygons and
version captured together), and every probe goes through a hot-cell cache
keyed by ``(layer, version)`` — so results are bit-identical to calling
``PolygonIndex.join`` directly, skewed workloads short-circuit most trie
descents, and a snapshot swap (:meth:`JoinService.swap_layer`) can never
serve an entry cached for a previous version.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.adaptive import AdaptationPolicy, AdaptiveController
from repro.core.builder import ProbeView
from repro.core.joins import (
    JoinResult,
    accurate_join,
    approximate_join,
    merge_join_results,
)
from repro.core.morsels import MorselExecutor
from repro.obs import DispatchMeters, Observability
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.batching import LookupRequest, MicroBatcher
from repro.serve.cache import (
    CachedCellStore,
    CacheStats,
    HotCellCache,
    key_shift_for_level,
)
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
    request runs ``self._dispatch(name, index, cell_ids, lats, lngs,
    exact, materialize)`` inside one timed ``dispatch`` span; subclasses
    implement that, ``_check_open``, ``stats``, ``swap_layer``,
    ``add_layer`` and ``close``.  The base takes no lock of its own.
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
        cell_ids: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> JoinResult:
        """Join one batch against one resolved layer (the subclass's part)."""
        raise NotImplementedError

    def _check_open(self) -> None:
        """Raise ``RuntimeError`` unless the service accepts requests."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def _record(
        self, result: JoinResult, seconds: float, *, requests: int, points: int
    ) -> None:
        self._recorder.record(
            requests=requests,
            points=points,
            pairs=result.num_pairs,
            seconds=seconds,
        )
        if self._meters is not None:
            self._meters.observe(result, seconds)

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
        with Timer() as timer:
            with self._tracer.dispatch(
                "dispatch", layer=name, points=len(requests), kind="lookup"
            ):
                cell_ids = index.cell_ids_for(lats, lngs)
                result = self._dispatch(
                    name, index, cell_ids, lats, lngs, exact, materialize=True
                )
                with self._tracer.span("scatter"):
                    per_point: list[list[int]] = [[] for _ in requests]
                    for point, pid in zip(
                        result.pair_points.tolist(),
                        result.pair_polygons.tolist(),
                    ):
                        per_point[point].append(int(pid))
        self._record(
            result, timer.seconds, requests=len(requests), points=len(requests)
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
        ``cell_ids`` lets a caller that already computed the points'
        leaf cell ids (the sharded front ships them alongside the
        coordinates) skip the recompute.
        """
        self._check_open()
        name, index = self._router.resolve(layer)
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        if cell_ids is not None:
            cell_ids = np.asarray(cell_ids, dtype=np.uint64)
            if len(cell_ids) != len(lats):
                raise ValueError(
                    f"cell_ids must hold one id per point, got {len(cell_ids)} "
                    f"ids for {len(lats)} points"
                )
        with Timer() as timer:
            with self._tracer.dispatch(
                "dispatch", layer=name, points=len(lats), exact=exact
            ):
                if cell_ids is None:
                    cell_ids = index.cell_ids_for(lats, lngs)
                result = self._dispatch(
                    name, index, cell_ids, lats, lngs, exact, materialize
                )
        self._record(result, timer.seconds, requests=1, points=len(lats))
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
        lats = np.asarray(lats, dtype=np.float64)
        lngs = np.asarray(lngs, dtype=np.float64)
        cell_ids = None
        results: dict[str, JoinResult] = {}
        for position, (name, index) in enumerate(routed):
            with Timer() as timer:
                with self._tracer.dispatch(
                    "dispatch", layer=name, points=len(lats), exact=exact
                ):
                    if cell_ids is None:
                        cell_ids = index.cell_ids_for(lats, lngs)
                    results[name] = self._dispatch(
                        name, index, cell_ids, lats, lngs, exact,
                        materialize=False,
                    )
            # One client-visible request for the whole fan-out; points
            # count per layer (each layer joins the full batch).
            self._record(
                results[name],
                timer.seconds,
                requests=1 if position == 0 else 0,
                points=len(lats),
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
        Size of the per-layer-version hot-cell table in distinct leaf
        cells (rounded up to a power of two slots; 0 disables caching).
        See :mod:`repro.serve.cache` for the replacement policy.
    max_batch / max_wait_ms:
        Micro-batching knobs: flush when ``max_batch`` lookups are
        pending, or ``max_wait_ms`` after the first one.
    num_threads / morsel_size:
        Batches larger than one morsel are split across a persistent
        morsel executor when ``num_threads > 1``.
    adaptation:
        An :class:`~repro.core.adaptive.AdaptationPolicy` turns on the
        self-tuning loop: refinement telemetry rides the hot-cell cache's
        key computation, and layers whose windowed solely-true-hit rate
        drops below the policy target are retrained on the observed
        traffic in the background and swapped in without downtime.
        ``None`` (default) disables telemetry and retraining entirely.
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
        # Caches and cached stores are keyed by (layer, version): a swap or
        # a dynamic-index mutation bumps the version, so stale entries are
        # unreachable by construction rather than by invalidation.
        self._caches: dict[tuple[str, int], HotCellCache] = {}
        self._stores: dict[tuple[str, int], CachedCellStore] = {}
        self._latest_version: dict[str, int] = {}
        for name, index in self._router.items():
            self._attach_view(name, index.probe_view())
        self._executor = (
            MorselExecutor(num_threads, morsel_size, metrics=self._metrics)
            if num_threads > 1
            else None
        )
        self._closed = False
        self._start_batcher(max_batch, max_wait_ms)

    def _attach_view(self, name: str, view: ProbeView) -> CachedCellStore:
        """Build the (layer, version) cache pair for one probe view.

        The cache-key shift is stamped from this view's own maximum cell
        level: any mutation that can deepen the indexed cells (a delta
        insert, a training split) bumps the version and re-attaches, so a
        truncated key is always at least as deep as the generation it
        serves (see the key-soundness regression tests in
        ``tests/test_adaptive.py``).
        """
        key = (name, view.version)
        cache = HotCellCache(self._cache_cells)
        key_shift = key_shift_for_level(view.max_cell_level)
        recorder = (
            self._adaptive.sink_for(name, view.lookup_table, key_shift)
            if self._adaptive is not None
            else None
        )
        store = CachedCellStore(
            view.store,
            cache,
            key_shift=key_shift,
            recorder=recorder,
            tracer=self._tracer,
        )
        self._caches[key] = cache
        self._stores[key] = store
        # Retire every generation older than the newest ever attached for
        # this layer — including a pre-swap view a laggard dispatch just
        # re-attached (it keeps working through its own references; only
        # the registry forgets it).  New requests can never reach retired
        # generations again, and exactly one generation per layer remains.
        latest = max(self._latest_version.get(name, 0), view.version)
        self._latest_version[name] = latest
        for stale in [k for k in self._stores if k[0] == name and k[1] < latest]:
            self._stores.pop(stale, None)
            self._caches.pop(stale, None)
        return store

    # ------------------------------------------------------------------
    # Layer management
    # ------------------------------------------------------------------

    def add_layer(self, name: str, index: JoinableIndex) -> None:
        """Register an additional polygon layer on the live service."""
        with self._attach_lock:
            self._router.add(name, index)
            view = index.probe_view()
            self._attach_view(name, view)
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
        with self._attach_lock:
            previous = self._router.swap(name, index)
            view = index.probe_view()
            self._attach_view(name, view)
        if self._events is not None:
            self._events.emit("swap", layer=name, version=int(view.version))
        return previous

    def cache(self, layer: str | None = None) -> HotCellCache:
        """The cache generation of one layer's current probe view.

        Attached on demand (a mutation may have outdated the registry);
        read off the cached store itself, so a concurrent newer attach
        retiring the registry entry mid-call cannot turn this into an
        error.
        """
        name, index = self._router.resolve(layer)
        return self._store_for(name, index.probe_view()).cache

    def _store_for(self, name: str, view: ProbeView) -> CachedCellStore:
        """The layer's cached store for one probe view (attach on demand)."""
        key = (name, view.version)
        store = self._stores.get(key)
        if store is None:
            with self._attach_lock:
                store = self._stores.get(key)
                if store is None:
                    store = self._attach_view(name, view)
        return store

    # ------------------------------------------------------------------
    # Dispatch internals
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        name: str,
        index: JoinableIndex,
        cell_ids: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> JoinResult:
        # One atomic snapshot for the whole dispatch: store, lookup table,
        # polygons and version always belong to the same index generation,
        # even if the layer is swapped or mutated mid-request.  The cached
        # store is resolved once here so morsel workers share it instead
        # of hitting the registry (and its lock) per chunk.
        view = index.probe_view()
        store = self._store_for(name, view)
        if (
            self._executor is not None
            and len(cell_ids) > self._executor.morsel_size
        ):
            result = self._dispatch_morsels(
                store, view, cell_ids, lats, lngs, exact, materialize
            )
        else:
            result = self._join_chunk(
                store, view, cell_ids, lats, lngs, exact, materialize
            )
        if self._adaptive is not None:
            # The probes above already fed the telemetry through the
            # cached store's recorder; this is only the (cheap) trigger
            # check that may kick off a background retrain.
            self._adaptive.after_dispatch(name, index)
        return result

    def _join_chunk(
        self,
        store: CachedCellStore,
        view: ProbeView,
        cell_ids: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> JoinResult:
        """One vectorized join through the layer's cached store.

        The tracer rides along so the kernels can emit ``probe`` /
        ``refine`` child spans from their own timers; on morsel worker
        threads (no active dispatch span) those emits no-op and the
        merged phases are synthesized in :meth:`_dispatch_morsels`.
        """
        if exact:
            return accurate_join(
                store,
                view.lookup_table,
                cell_ids,
                view.polygons,
                lngs,
                lats,
                materialize=materialize,
                engine=view.refiner,
                tracer=self._tracer,
            )
        return approximate_join(
            store,
            view.lookup_table,
            cell_ids,
            len(view.polygons),
            materialize=materialize,
            tracer=self._tracer,
        )

    def _dispatch_morsels(
        self,
        store: CachedCellStore,
        view: ProbeView,
        cell_ids: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> JoinResult:
        """Split a large batch into morsels and merge the partial results."""
        def work(lo: int, hi: int) -> JoinResult:
            part = self._join_chunk(
                store,
                view,
                cell_ids[lo:hi],
                lats[lo:hi],
                lngs[lo:hi],
                exact,
                materialize,
            )
            if materialize:
                part.pair_points = part.pair_points + lo
            return part

        with Timer() as timer:
            parts = self._executor.map_morsels(len(cell_ids), work)
        with self._tracer.span("merge", morsels=len(parts)):
            merged = merge_join_results(
                parts,
                num_points=len(cell_ids),
                num_polygons=len(view.polygons),
                wall_seconds=timer.seconds,
                materialize=materialize,
            )
        # Morsel workers run with empty span stacks, so the per-chunk
        # probe/refine spans no-op'd; synthesize the merged phases from
        # the same apportioned wall times the JoinResult reports.
        self._tracer.emit("probe", merged.probe_seconds, morsels=len(parts))
        if merged.refine_seconds > 0.0:
            self._tracer.emit(
                "refine", merged.refine_seconds, morsels=len(parts)
            )
        return merged

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
        with self._attach_lock:  # add/swap may be mutating the dicts
            caches = dict(self._caches)
        # Exactly one generation per layer should remain attached, but if
        # that invariant ever breaks (a laggard dispatch re-attaching a
        # pre-swap view), report the NEWEST version deterministically —
        # never let a stale generation's counters mask the live one just
        # because it was inserted later.
        newest: dict[str, tuple[int, HotCellCache]] = {}
        for (name, version), cache in caches.items():
            held = newest.get(name)
            if held is None or version > held[0]:
                newest[name] = (version, cache)
        cache_stats: dict[str, CacheStats] = {
            name: cache.stats() for name, (_version, cache) in newest.items()
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
