"""Share-nothing sharded serving: saturate cores past the GIL.

A single-process :class:`~repro.serve.service.JoinService` is GIL-bound
on the Python-level portions of the probe.  This module splits every
batch's *points* by position and joins each share in its own process,
every process probing the layer's one read-only index — the paper's
parallelisation: morsels of the point stream handed to workers that all
probe one shared ACT (arXiv:1802.09488 §5).

* A layer generation publishes in ONE shared-memory segment, and the
  service in one more::

      layer snapshot (one segment per layer generation, pack_index)
        ring geometry | edge buckets | ACT store | lut | covering
              ^ every lane attaches it read-only
      scatter ring (one segment per service, 1 << 16 points)
        lats | lngs | leaf cell ids
        ^ the front writes a slice
                      ^ lane k writes ids[a_k:b_k], then joins
                        positions [a_k, b_k) of the slice

  A point lies in exactly one lane's share and its join depends only on
  the point, so merged results need no front-side dedup.
* A **shard worker** is a spawned process hosting one ordinary
  :class:`JoinService` over every layer, which it *attaches* from the
  published segments (a buffer map, no store build).  Batch coordinates
  travel through one persistent scatter ring, never the pickle stream:
  the front writes each ring-sized slice of a batch once, in batch
  order, and every lane joins its positional share of it (see
  "Positional shares") out of the views it attached at start-up.  Only
  control messages and the (small) partial ``JoinResult`` statistics
  cross the pipe, and every lane is drained before the next slice is
  written, so none can still be reading the ring.
* :class:`ShardedJoinService` is the front: a
  :class:`~repro.serve.service.ServiceFront` whose dispatch scatters
  each batch, gathers the partial results and merges them with
  :func:`~repro.core.joins.merge_join_results`.  Swaps fan out to every
  lane; adaptation does not: lanes return their shares' traffic, the
  front's one loop per layer records it as a :class:`JoinService` would
  and retrains through :meth:`ShardedJoinService.swap_layer`.  The merged
  :class:`~repro.serve.stats.ServiceStats` carries per-shard detail in
  ``stats.shards``.

**Positional shares.**  Lane ``k`` of ``N`` owns positions ``[a_k, b_k)
= [k·⌈n/N⌉, (k+1)·⌈n/N⌉)``, clipped to ``n``, of every ring slice of
``n`` points (:meth:`ShardPlan.share`).  The front computes no cell id:
it writes ``lats | lngs`` and messages EVERY lane; lane ``k`` computes
the ids of its share straight into the id plane, joins that same share
and replies.  No lane reads what another wrote, so none waits for
another, and a lane that fails replies its own error.  The reply's
``pair_points`` are offset by ``a_k``, so the merge, taking the lanes in
order, lists the pairs share by share, the shares in batch order.  Ids the caller brought
(``cell_ids=``) are written with the slice and the message says so
(``brought``): the lanes skip the computation.  After the gather the
front reads the id plane back (``join_layers`` brings it to every later
layer).  Nothing spins while idle: between messages a lane blocks in
``conn.recv()``.

**Lane placement.**  A worker process (:func:`_shard_worker_main`, and
only there — never the caller's process) binds itself to one CPU of the
affinity mask it inherited (lane ``k`` to the ``k``-th of the sorted
mask, modulo its size) and switches itself to ``SCHED_BATCH``.  One
lane, one core keeps a lane's working set in that core's cache; a
batch task's wake-up does not preempt its waker, so the front finishes
fanning a slice out before any lane takes its CPU — without it the
lanes were observed to run one after the other.  Threads a lane starts
(its service's batcher) inherit both.  A call the platform lacks
or refuses is skipped; there is nothing to configure.

``backend="inline"`` hosts the per-shard services in the calling process
instead: the same publication and attach, the same scatter ring,
the same message handler (:func:`_apply_admin`) and the same merge —
what the shard-boundary equivalence tests exercise and debugging uses.

The front serializes dispatches with one lock (a worker pipe is not
safe for interleaved use anyway); parallelism comes from splitting each
batch across the shard processes, not from overlapping dispatches.
"""

from __future__ import annotations

import contextlib
import os
import threading
import traceback
from dataclasses import astuple, dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from collections.abc import Mapping, Sequence, Sized

import numpy as np

from repro.core.adaptive import AdaptationPolicy, TrafficIncrement, merge_increments
from repro.core.builder import PolygonIndex
from repro.core.flat import (
    FLAT_COVERAGE_BUFFERS,
    FLAT_GEOMETRY_BUFFERS,
    FlatSnapshot,
    attach_index,
    pack_index,
)
from repro.core.joins import JoinResult, merge_join_results
from repro.core.morsels import OFFLINE_MORSEL_POINTS
from repro.obs import Observability
from repro.serve.cache import CacheStats
from repro.serve.service import JoinService, ServiceFront
from repro.serve.stats import LayerStatus, ServiceStats, ShardStatus
from repro.util.timing import Timer


class ShardWorkerError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback text."""

    def __init__(self, shard: int, detail: str):
        super().__init__(f"shard {shard} failed:\n{detail}")
        self.shard = shard
        self.detail = detail


# ----------------------------------------------------------------------
# The shard plan: positional shares of every ring slice
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """Which lane joins which point: lane ``k`` of ``num_shards`` joins
    positions :meth:`share` ``(k, n)`` of every ring slice of ``n``
    points.  A plan reads no index — every lane probes the whole layer,
    so the split changes no answer, only which lane computes it.
    """

    num_shards: int

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")

    def share(self, shard: int, total: int) -> tuple[int, int]:
        """Lane ``shard``'s positions ``[a, b)`` of a slice of ``total``
        points: ``[shard·⌈total/N⌉, (shard+1)·⌈total/N⌉)`` clipped to
        ``total``, so the trailing lanes of a short slice get empty shares."""
        step = -(-total // self.num_shards)
        a = min(shard * step, total)
        return a, min(a + step, total)

    def shard_for(self, points: Sized) -> np.ndarray:
        """The lane that joins each point of a batch: :meth:`share`, ring
        slice by ring slice (only ``len(points)`` is read)."""
        lanes = np.empty(len(points), dtype=np.intp)
        for lo in range(0, len(points), OFFLINE_MORSEL_POINTS):
            total = min(len(points) - lo, OFFLINE_MORSEL_POINTS)
            for shard in range(self.num_shards):
                a, b = self.share(shard, total)
                lanes[lo + a : lo + b] = shard
        return lanes


# ----------------------------------------------------------------------
# Worker-side: payloads, service construction, the process main loop
# ----------------------------------------------------------------------


@dataclass
class _WorkerPayload:
    """Everything one shard worker needs to build its JoinService."""

    shard: int
    parts: dict[str, tuple[str, int]]  # layer name -> (its segment, its version)
    ring_shm: str  # the front's one scatter ring, attached once per lane
    cache_cells: int
    # The lane's Observability(tracing=...), as the front's; None: no obs.
    tracing: bool | None = None


def _index_from_part(part: tuple[str, int]) -> PolygonIndex:
    """Attach the layer index a ``(segment name, version)`` part names
    (no store build), stamped with the front's version.

    The attach keeps its ``SharedMemory`` handle open for the index's
    whole lifetime (pinned as the snapshot owner) — closing it while
    numpy views into the buffers exist is an error, so the handle is
    simply dropped with the index.
    """
    name, version = part
    segment = _attach_shm(name)
    snapshot = FlatSnapshot.from_buffer(segment.buf, owner=segment)
    return attach_index(snapshot, version=version)


def _build_shard_service(payload: _WorkerPayload) -> JoinService:
    return JoinService(
        {name: _index_from_part(part) for name, part in payload.parts.items()},
        cache_cells=payload.cache_cells,
        obs=None if payload.tracing is None else Observability(tracing=payload.tracing),
    )


def _apply_admin(
    service: JoinService,
    ring: tuple[np.ndarray, np.ndarray, np.ndarray],
    msg: tuple,
    shard: int,
    build_seconds: float,
) -> object:
    """Execute one message against a shard's JoinService; return the reply.

    The one handler both backends run — the process worker loop wraps
    its outcome in ``("ok"|"err", ...)``, the inline client re-raises —
    so the backends cannot diverge in behavior.

    ``join`` takes the lane's positional share ``[a, b)`` of the first
    ``total`` slots of ``ring`` (the lane's :func:`_ring_planes` views):
    it computes the share's cell ids into the id plane unless the front
    ``brought`` them, then joins the share (an empty share replies the
    zero result); with ``materialize`` the reply's ``pair_points`` are
    slice positions.  ``trace`` is the front dispatch's ``(trace_id,
    parent_span_id)`` or ``None``; a traced join opens a ``shard`` root
    under that remote parent (a ``cell_ids`` child for the ids).  The
    reply is ``(result, increment, finished_spans)``: the share's traffic
    increment if ``observe`` (the front adapts), else ``None``, and the
    spans for the front to adopt (none when untraced).  ``ping`` replies
    with the service construction time and, where the platform has them,
    the lane's CPU mask and scheduling policy; layer ops with their layer
    attach time (the attach latency meter).
    """
    op = msg[0]
    if op == "join":
        _, layer, total, lanes, brought, exact, materialize, observe, trace = msg
        ring_lats, ring_lngs, ring_ids = ring
        tracer = service.tracer
        _, index = service._router.resolve(layer)
        a, b = ShardPlan(lanes).share(shard, total)
        traffic: dict[str, TrafficIncrement] = {}  # the join's increment, observing
        service._traffic_sink = traffic.__setitem__ if observe else None
        with tracer.remote_root("shard", trace, shard=shard):
            if not brought:
                with tracer.span("cell_ids", points=b - a):
                    ring_ids[a:b] = index.cell_ids_for(ring_lats[a:b], ring_lngs[a:b])
            if a < b:
                result = service.join(
                    ring_lats[a:b], ring_lngs[a:b], layer=layer, exact=exact,
                    materialize=materialize, cell_ids=ring_ids[a:b],
                )
                if materialize:
                    result.pair_points += a
            else:
                result = merge_join_results(
                    (), num_points=0, num_polygons=len(index.polygons),
                    wall_seconds=0.0, materialize=materialize,
                )
        return result, traffic.get(layer), (() if trace is None else tracer.take_last_trace())
    if op == "ping":
        report: dict[str, object] = {"build_seconds": build_seconds}
        if hasattr(os, "sched_getaffinity"):
            report["affinity"] = sorted(os.sched_getaffinity(0))
            report["policy"] = os.sched_getscheduler(0)
        return report
    if op == "stats":
        return service.stats()
    if op in ("swap", "add_layer"):
        _, name, part = msg
        with Timer() as timer:
            index = _index_from_part(part)
        if op == "swap":
            service.swap_layer(name, index)
        else:
            service.add_layer(name, index)
        return {"build_seconds": timer.seconds}
    raise ValueError(f"unknown shard op: {op!r}")


class _AttachedSegment(SharedMemory):
    """An attachment whose finalizer tolerates still-exported views.

    A worker pins its attach handles inside the index it serves; when
    the index is dropped (swap retirement, shutdown) the interpreter may
    finalize the handle *before* the numpy views into its buffer, and
    the stock destructor then raises — and prints — a ``BufferError``.
    The mapping is released once the last view goes away regardless, so
    the error is pure shutdown noise.  An explicit ``close()`` is
    unaffected.
    """

    def __del__(self):
        with contextlib.suppress(BufferError):
            super().__del__()


def _attach_shm(name: str) -> SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    The front owns (and unlinks) what it published.  On 3.13+
    ``track=False`` keeps the attachment out of the resource tracker;
    before, the attach registers unconditionally — harmless, because
    spawned workers share the front's tracker process and its cache is a
    set: the duplicate collapses and the front's unlink clears it.
    Unregistering explicitly instead would corrupt that shared cache.
    """
    try:
        return _AttachedSegment(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        return _AttachedSegment(name=name)


def _ring_planes(shm: SharedMemory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scatter ring's three planes, as views of the segment: ``lats |
    lngs | leaf cell ids``, :data:`OFFLINE_MORSEL_POINTS` slots each."""
    points = OFFLINE_MORSEL_POINTS
    return (
        np.frombuffer(shm.buf, np.float64, count=points),
        np.frombuffer(shm.buf, np.float64, count=points, offset=8 * points),
        np.frombuffer(shm.buf, np.uint64, count=points, offset=16 * points),
    )


def _fill_ring(shm: SharedMemory, *columns: np.ndarray) -> None:
    """Write one slice's ``lats, lngs`` (and the caller's cell ids, if it
    brought them) into the ring, in batch order.  The views die with this
    frame: no traceback of a failed dispatch can keep one exported past
    the front's ``close()``."""
    for plane, column in zip(_ring_planes(shm), columns):
        plane[: len(column)] = column


def _shard_worker_main(conn, payload: _WorkerPayload) -> None:
    """Entry point of one shard worker process (spawn-safe: module level).

    Places itself, attaches the layer snapshots and the scatter
    ring, builds the shard's JoinService, then answers control messages
    until ``close`` or the pipe drops.  Every reply is ``("ok", value)``
    or ``("err", traceback_text)`` — a failed request never kills the
    worker, so one poisoned batch cannot take a shard down with it.  The
    ``ping`` reply carries the service construction time: the front's
    spawn barrier doubles as the attach measurement the bench reports.
    """
    # Lane placement (module docstring): one core of the inherited mask,
    # wake-ups that do not preempt the front.  An optimisation only — a
    # platform that refuses either call serves unplaced.
    if hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[payload.shard % len(cpus)]})
    if hasattr(os, "sched_setscheduler"):
        with contextlib.suppress(OSError):
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    # A worker re-allocates the same ~0.5 MB of numpy temporaries on every
    # dispatch.  glibc hands a freed heap top above its trim threshold
    # (128 KiB until the process has freed one mmapped block) back to the
    # OS, so unless an unrelated allocation pins the top, each dispatch
    # faults those pages in again — on a 5.5 k-point dispatch 139 instead
    # of 4 minor faults, +0.27 ms of system time, flipping with any edit
    # that moves the heap.  Freeing one 4 MiB block raises both dynamic
    # thresholds for the process's life.
    np.empty(1 << 22, dtype=np.uint8)
    try:
        with Timer() as build_timer:
            service = _build_shard_service(payload)
        ring_shm = _attach_shm(payload.ring_shm)  # unmapped by process exit
        ring = _ring_planes(ring_shm)
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "close":
                conn.send(("ok", None))
                break
            try:
                reply = ("ok", _apply_admin(
                    service, ring, msg, payload.shard, build_timer.seconds
                ))
            except BaseException:
                reply = ("err", traceback.format_exc())
            conn.send(reply)
    finally:
        service.close()
        conn.close()


# ----------------------------------------------------------------------
# Front-side shard clients
# ----------------------------------------------------------------------


#: Every shard worker is spawned (``ShardedJoinService`` says why).
_WORKER_CONTEXT = get_context("spawn")


class _ProcessShard:
    """Front-side handle of one spawned shard worker."""

    def __init__(self, payload: _WorkerPayload):
        self.shard = payload.shard
        parent, child = _WORKER_CONTEXT.Pipe()
        self._conn = parent
        self._process = _WORKER_CONTEXT.Process(
            target=_shard_worker_main,
            args=(child, payload),
            name=f"repro-shard-{payload.shard}",
            daemon=True,
        )
        self._process.start()
        child.close()

    def start(self, msg: tuple) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(self.shard, f"worker pipe closed: {exc}") from None

    def finish(self) -> object:
        """The reply to the last ``start``, waited for at most
        :data:`_LANE_TIMEOUT_S`.  A worker silent that long is killed, so
        no late reply can pass for the answer to a later request, and
        every later ``start`` fails on the dead pipe."""
        try:
            if not self._conn.poll(_LANE_TIMEOUT_S):
                self._process.kill()
                self._process.join(timeout=_LANE_TIMEOUT_S)
                raise ShardWorkerError(
                    self.shard, f"no reply within {_LANE_TIMEOUT_S} s; worker killed"
                )
            kind, value = self._conn.recv()
        except (EOFError, OSError):
            raise ShardWorkerError(self.shard, "worker terminated unexpectedly") from None
        if kind == "err":
            raise ShardWorkerError(self.shard, value)
        return value

    def request(self, msg: tuple) -> object:
        self.start(msg)
        return self.finish()

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError, EOFError, OSError):
            self._conn.send(("close",))
            if self._conn.poll(_LANE_TIMEOUT_S):  # a wedged worker never acks
                self._conn.recv()
        self._conn.close()
        self._process.join(timeout=_LANE_TIMEOUT_S)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=_LANE_TIMEOUT_S)
        if self._process.is_alive():  # a stopped process never sees SIGTERM
            self._process.kill()
            self._process.join(timeout=_LANE_TIMEOUT_S)


class _InlineShard:
    """In-process shard client: same lanes, no processes.

    The test backend (and a debugging aid): the shard-boundary
    equivalence properties run thousands of examples without paying
    process spawns.  Messages go through :func:`_apply_admin` exactly as
    in a worker — a join computes and joins its share of the same
    attached scatter ring — with ``start`` running the request and
    ``finish`` handing back its outcome.  A failure re-raises the
    ORIGINAL exception from ``finish`` (no pipe to flatten it into a
    traceback string).  Lane placement is the one thing not shared: it
    belongs to a worker process only.
    """

    def __init__(self, payload: _WorkerPayload):
        self.shard = payload.shard
        with Timer() as build_timer:
            self._service = _build_shard_service(payload)
        self._build_seconds = build_timer.seconds
        self._ring_shm = _attach_shm(payload.ring_shm)
        self._ring = _ring_planes(self._ring_shm)
        self._outcome: tuple[bool, object] | None = None  # (ok, reply or error)

    def start(self, msg: tuple) -> None:
        try:
            self._outcome = True, _apply_admin(
                self._service, self._ring, msg, self.shard, self._build_seconds
            )
        except BaseException as exc:
            self._outcome = False, exc

    def finish(self) -> object:
        assert self._outcome is not None, "finish() without a start()"
        (ok, value), self._outcome = self._outcome, None
        if not ok:
            raise value
        return value

    def request(self, msg: tuple) -> object:
        self.start(msg)
        return self.finish()

    def close(self) -> None:
        self._service.close()
        self._ring = ()
        # The traceback of a failed join may still hold the views.
        with contextlib.suppress(BufferError):
            self._ring_shm.close()


def _scatter_gather(
    sends: list[tuple["_ProcessShard | _InlineShard", tuple]],
) -> tuple[list, list[BaseException]]:
    """Send every request, then drain every worker that received one.

    ``sends`` is a list of ``(client, message)`` pairs.  The drain
    discipline is the pipe-alignment invariant of the whole front: a
    worker that received a request MUST be drained even after another
    worker failed (and workers after a failed SEND must not be sent to),
    or a queued reply would be mistaken for the answer to a later
    request — and it is what makes the scatter ring reusable: once this
    returns, no lane is still reading it.  Returns ``(gathered, errors)``:
    the replies of the sends that completed, in send order, and every
    send/finish failure in occurrence order.
    """
    sent: list = []
    errors: list[BaseException] = []
    for client, msg in sends:
        try:
            client.start(msg)
        except BaseException as exc:
            errors.append(exc)
            break
        sent.append(client)
    gathered: list = []
    for client in sent:
        try:
            gathered.append(client.finish())
        except BaseException as exc:
            errors.append(exc)
    return gathered, errors


# ----------------------------------------------------------------------
# The sharded service front
# ----------------------------------------------------------------------

#: Seconds the front waits on a lane: for each reply (``_ProcessShard.finish``
#: kills a worker silent that long) and at each step of
#: ``_ProcessShard.close``.  No lane waits on another, so this is the only
#: timeout on the join path.
_LANE_TIMEOUT_S = 10.0

#: The front's gauges (metric name -> help), set by
#: :meth:`ShardedJoinService._set_snapshot_gauges`.
_SHARD_GAUGES = {
    "shard_snapshot_bytes": "flat snapshot payload bytes published by the shard front",
    "shard_attach_seconds": "slowest worker-side layer attach, last fan-out",
}


def _check_shardable(name: str, index: object) -> PolygonIndex:
    if not isinstance(index, PolygonIndex):
        raise TypeError(
            f"layer {name!r}: sharded serving requires immutable "
            f"PolygonIndex snapshots, got {type(index).__name__} "
            "(serve dynamic indexes from a single-process JoinService, "
            "or compact them into a snapshot first)"
        )
    return index


def _publish(index: PolygonIndex) -> tuple[SharedMemory, tuple[int, int]]:
    """Publish one layer generation in a new front-owned segment.

    Returns the segment and the snapshot's ``(geometry, coverage)``
    payload bytes, split by buffer name.  The caller installs the segment
    only once every lane attached it, and unlinks it itself on failure.
    """
    snapshot = pack_index(index)
    geometry, coverage = (
        sum(int(snapshot.buffers[name].nbytes) for name in section)
        for section in (FLAT_GEOMETRY_BUFFERS, FLAT_COVERAGE_BUFFERS)
    )
    return snapshot.to_shared_memory(), (geometry, coverage)


def _unlink(*segments: SharedMemory) -> None:
    """Close and unlink segments the front published."""
    for segment in segments:
        with contextlib.suppress(FileNotFoundError):  # pragma: no cover - already gone
            segment.close()
            segment.unlink()


class ShardedJoinService(ServiceFront):
    """A multi-process :class:`JoinService` front that splits points by position.

    Parameters
    ----------
    layers:
        A single :class:`PolygonIndex` (served as layer ``"default"``)
        or a mapping of layer name to index.  A ``PolygonIndex`` never
        changes, so each lane's attached copy stays its layer's answer
        until :meth:`swap_layer`; dynamic indexes belong in a
        single-process service.
    num_shards:
        Worker processes == positional shares of every batch slice
        (:meth:`plan`).  Each worker hosts one :class:`JoinService` over
        every layer and joins its share.
    backend:
        ``"process"`` (default) spawns one worker process per shard,
        each placed on its own core (module docstring); ``"inline"``
        hosts the shard services in-process (tests, debugging).  Workers
        always start with ``spawn``: the worker entry point is
        module-level and payloads are pickled explicitly, so workers
        never depend on forked state.
    adaptation:
        One adaptation loop per layer, run by the front: the lanes report
        the traffic of their shares, the front records it, and a retrain
        installs through :meth:`swap_layer` (module docstring).
    obs:
        An :class:`~repro.obs.Observability` bundle for the front.  Every
        worker payload carries whether it traces, so each lane runs its
        own ``Observability(tracing=...)`` (the front samples and judges
        slow dispatches; a lane traces every dispatch the front chose); a
        traced dispatch's worker spans return over the pipe and are
        adopted into the front's ring (see :func:`_apply_admin`) — one
        end-to-end trace.

    ``join`` results are bit-identical (every ``JoinResult`` statistic)
    to the equivalent single-process service and to ``PolygonIndex.join``
    — every point lies in exactly one lane's share, and every lane probes
    the whole layer.
    """

    def __init__(
        self,
        layers: PolygonIndex | Mapping[str, PolygonIndex],
        *,
        num_shards: int = 2,
        default_layer: str | None = None,
        cache_cells: int = 4096,
        adaptation: AdaptationPolicy | None = None,
        backend: str = "process",
        obs: Observability | None = None,
    ):
        plan = ShardPlan(num_shards)  # rejects num_shards < 1
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        # The front's layer registry IS a LayerRouter (copy-on-write
        # reads, default resolution, rollback checks), as JoinService's.
        super().__init__(
            layers,
            default_layer=default_layer,
            adaptation=adaptation,
            obs=obs,
        )
        for name, index in self._router.items():
            _check_shardable(name, index)
        self.num_shards = num_shards
        self.backend = backend
        self._plan = plan
        self._gauges = (
            {
                name: self._metrics.gauge(name, description)
                for name, description in _SHARD_GAUGES.items()
            }
            if self._metrics is not None
            else {}
        )
        # One segment per layer, CURRENT generation, owned by the front;
        # retired (and unlinked) on swap and close.
        self._segments: dict[str, SharedMemory] = {}  #: guarded_by(_lock)
        # Published (geometry, coverage) payload bytes per layer, current
        # generation.
        self._plane_bytes: dict[str, tuple[int, int]] = {}  #: guarded_by(_lock)
        # One lock serializes dispatches and admin fan-outs: worker pipes
        # are request/response channels, never to be interleaved.
        self._lock = threading.Lock()
        self._closed = False  #: guarded_by(_lock, writes)
        self._poisoned = False  #: guarded_by(_lock, writes)
        self._clients: list[_ProcessShard | _InlineShard] = []  #: guarded_by(_lock)
        self._spawn_seconds: tuple[float, ...] = ()
        # The scatter ring, one for the service's life: dispatches write it.
        #: guarded_by(_lock)
        self._ring = SharedMemory(create=True, size=24 * OFFLINE_MORSEL_POINTS)
        try:
            parts: dict[str, tuple[str, int]] = {}
            for name, index in self._router.items():
                self._segments[name], self._plane_bytes[name] = _publish(index)
                parts[name] = (self._segments[name].name, int(index.version))
            payloads = [
                _WorkerPayload(
                    shard=shard,
                    parts=parts,
                    ring_shm=self._ring.name,
                    cache_cells=cache_cells,
                    tracing=obs.tracer.enabled if obs is not None else None,
                )
                for shard in range(num_shards)
            ]
            if backend == "inline":
                spawn = _InlineShard
            else:
                # Start the parent's resource tracker BEFORE creating
                # workers: spawned children must inherit it (a worker that
                # lazily spawns its own on shm attach would warn about
                # "leaked" segments the front rightly owns and unlinks).
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
                spawn = _ProcessShard
            for payload in payloads:
                # One lane at a time: when lane k fails to come up,
                # _shutdown() still closes the lanes before it.
                self._clients.append(spawn(payload))
            # Barrier: surfaces attach errors; the replies carry each
            # worker's service construction time.
            reports = [client.request(("ping",)) for client in self._clients]
        except BaseException:
            # A mid-spawn failure must not leak what was published: the
            # workers that did come up only hold attachments.
            self._shutdown()
            raise
        self._spawn_seconds = tuple(
            float(report["build_seconds"]) for report in reports
        )
        self._set_snapshot_gauges(self._spawn_seconds)
        if self._events is not None:
            for payload in payloads:
                self._events.emit(
                    "shard_spawn",
                    shard=payload.shard,
                    backend=backend,
                    spawn_seconds=self._spawn_seconds[payload.shard],
                )
        self._start_batcher()

    # ------------------------------------------------------------------
    # The plan and snapshot segment publication
    # ------------------------------------------------------------------

    def plan(self, layer: str | None = None) -> ShardPlan:
        """The split every dispatch on one layer uses: the same positional
        shares for every layer."""
        self._check_open()
        self._router.resolve(layer)  # unknown layers raise, as elsewhere
        return self._plan

    @property
    def spawn_seconds(self) -> tuple[float, ...]:
        """Per-shard worker-side service construction time (the spawn
        barrier's ping replies): a zero-copy attach of the layer segments."""
        return self._spawn_seconds

    def replication_factor(self, layer: str | None = None) -> float:
        """Published geometry copies per distinct polygon: 1.0, as a layer
        is one segment.  Kept for the benchmark's
        ``serve.replication_factor`` row, which ROADMAP item C retires."""
        self._router.resolve(layer)  # unknown layers raise, as elsewhere
        return 1.0

    def plane_bytes(self, layer: str | None = None) -> tuple[int, int]:
        """One layer's published payload bytes for the current generation,
        ``(geometry, coverage)`` split by buffer name
        (:data:`~repro.core.flat.FLAT_GEOMETRY_BUFFERS` /
        :data:`~repro.core.flat.FLAT_COVERAGE_BUFFERS`)."""
        self._check_open()
        with self._lock:
            name, _ = self._router.resolve(layer)
            return self._plane_bytes[name]

    #: requires(_lock)
    def _set_snapshot_gauges(self, build_seconds: Sequence[float]) -> None:
        if not self._gauges:
            return
        values = {
            "shard_snapshot_bytes": sum(
                segment.size for segment in self._segments.values()
            ),
        }
        if build_seconds:
            values["shard_attach_seconds"] = max(build_seconds)
        for name, value in values.items():
            self._gauges[name].set(value)

    # ------------------------------------------------------------------
    # Dispatch: scatter / gather / merge
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        name: str,
        index: PolygonIndex,
        cell_ids: np.ndarray | None,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> tuple[JoinResult, np.ndarray]:
        # The dispatch root's context, BEFORE child spans open: `shard`
        # roots are siblings of the front's scatter/gather/merge phases.
        trace_ctx = self._tracer.context()
        lanes = self.num_shards
        brought = () if cell_ids is None else (cell_ids,)
        if not brought:  # the lanes compute them; read back slice by slice
            cell_ids = np.empty(len(lats), dtype=np.uint64)
        parts: list[JoinResult] = []
        increments: list[TrafficIncrement] = []  # the lanes' traffic, observing
        lane_spans: list = []  # the lanes' finished spans, when traced
        with self._lock, Timer() as timer:
            # Resolve UNDER the dispatch lock (the caller's `index` is
            # only its routing check): the index and the lanes' attached
            # copies belong to one generation even when a swap_layer
            # lands between that check and this dispatch.
            _, index = self._router.resolve(name)
            # Ring-sized slices: one for every batch a micro-batcher or
            # the benchmark sends.  A slice is gathered before the next
            # is written, so no lane can still be reading the ring.
            for lo in range(0, max(len(lats), 1), OFFLINE_MORSEL_POINTS):
                window = slice(lo, lo + OFFLINE_MORSEL_POINTS)
                total = len(lats[window])
                with self._tracer.span("scatter", points=total, shards=lanes):
                    _fill_ring(
                        self._ring, lats[window], lngs[window],
                        *(ids[window] for ids in brought),
                    )
                    msg = ("join", name, total, lanes, bool(brought), exact,
                           materialize, self._adaptive is not None, trace_ctx)
                with self._tracer.span("gather", shards=lanes) as span:
                    replies, errors = _scatter_gather(
                        [(client, msg) for client in self._clients]
                    )
                    if errors:
                        raise errors[0]
                    ids_seconds = [
                        s.seconds for *_, spans in replies for s in spans if s.name == "cell_ids"
                    ]
                    span.set(
                        lane_seconds_max=max(
                            r.probe_seconds + r.refine_seconds for r, *_ in replies
                        ),
                        lane_ids_seconds_max=max(ids_seconds, default=0.0),
                    )
                if not brought:
                    cell_ids[window] = _ring_planes(self._ring)[2][:total]
                for result, increment, spans in replies:
                    if materialize and lo:  # slice -> batch positions
                        result.pair_points += lo
                    parts.append(result)
                    if increment is not None:
                        increments.append(increment)
                    lane_spans += spans
        self._tracer.adopt(lane_spans)  # one trace, readable in one place
        with self._tracer.span("merge", shards=len(parts)):
            merged = merge_join_results(
                parts,
                num_points=len(lats),
                num_polygons=len(index.polygons),
                wall_seconds=timer.seconds,
                materialize=materialize,
            )
            if increments:  # one record per dispatch, as a JoinService's
                self._adaptive.record(name, merge_increments(increments))
        if self._adaptive is not None:
            self._adaptive.after_dispatch(name, index)
        return merged, cell_ids

    # ------------------------------------------------------------------
    # Layer management (fans out per shard)
    # ------------------------------------------------------------------

    def swap_layer(self, name: str, index: PolygonIndex) -> PolygonIndex:
        """Atomically replace a layer with a newer snapshot on every shard.

        Publishes the new snapshot and fans the swap out; the workers
        attach the new layer segment in parallel, and the dispatch lock
        makes the fan-out atomic with respect to joins.
        """
        _check_shardable(name, index)
        with self._lock:
            self._check_open()  # under the lock: never once the lanes are shut
            if name not in self._router:
                raise KeyError(
                    f"cannot swap unknown layer {name!r}; "
                    f"registered layers: {list(self._router.names)}"
                )
            _, previous = self._router.resolve(name)
            if index.version <= previous.version:
                raise ValueError(
                    f"refusing to swap layer {name!r} to version "
                    f"{index.version} (currently {previous.version})"
                )
            self._install_layer("swap", name, index)
        return previous

    def add_layer(self, name: str, index: PolygonIndex) -> None:
        """Register an additional layer on the live sharded service."""
        if not name:
            raise ValueError("layer name must be non-empty")
        _check_shardable(name, index)
        with self._lock:
            self._check_open()
            if name in self._router:
                raise ValueError(f"layer {name!r} is already registered")
            self._install_layer("add_layer", name, index)

    #: requires(_lock)
    def _install_layer(self, op: str, name: str, index: PolygonIndex) -> None:
        """Publish, fan out, then install one layer generation.

        ``op`` is both the worker message (``"swap"`` / ``"add_layer"``)
        and the event name.  The new generation is installed only after
        EVERY shard applied it, so a dispatch always resolves the index
        the workers serve.
        """
        segment, plane_bytes = _publish(index)
        try:
            reports = self._admin_fan_out((op, name, (segment.name, int(index.version))))
        except BaseException:
            # Whether the workers kept the previous generation or the
            # service got poisoned, the new segment is the front's to
            # reclaim (attached workers keep mappings).
            _unlink(segment)
            raise
        # A retired generation's segment unlinks now; workers holding the
        # old attachment keep their mappings until they drop it.
        if name in self._segments:
            _unlink(self._segments[name])
        self._segments[name] = segment
        self._plane_bytes[name] = plane_bytes
        if op == "swap":
            self._router.swap(name, index)
        else:
            self._router.add(name, index)
        self._set_snapshot_gauges([report["build_seconds"] for report in reports])
        if self._events is not None:
            self._events.emit(
                op, layer=name, version=int(index.version), shards=self.num_shards
            )

    def _admin_fan_out(self, msg: tuple) -> list:  #: requires(_lock)
        """Scatter one admin message to every shard; gather before returning.

        All-or-nothing: if SOME shards applied the change and others did
        not, the lanes serve different generations of the layer and no
        dispatch can join them as one — the service is poisoned (every later
        call raises) rather than silently serving mixed generations.  A
        failure on EVERY shard leaves the previous state intact, so the
        service stays usable.  Returns the per-shard replies (the
        workers' attach timings).
        """
        gathered, errors = _scatter_gather([(client, msg) for client in self._clients])
        if errors:
            if 0 < len(gathered) < len(self._clients):
                self._poisoned = True
            raise errors[0]
        return gathered

    # ------------------------------------------------------------------
    # Observability & lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Merged snapshot with per-shard detail in ``stats.shards``.

        Front-level latency covers whole scatter/gather dispatches;
        cache counters sum across shards per layer; each shard's own
        ``ServiceStats`` rides along in ``shards``.  Adaptation is the
        front's, per layer; a lane adapts nothing.
        """
        self._check_open()
        with self._lock:
            # Scatter before gathering: the per-shard snapshot work
            # overlaps instead of N sequential round-trips under the lock.
            shard_stats: list[ServiceStats]
            shard_stats, errors = _scatter_gather(
                [(client, ("stats",)) for client in self._clients]
            )
            if errors:
                raise errors[0]
            indexes = dict(self._router.items())
        # Every lane registers a table per layer: counters sum field by field.
        cache = {
            name: CacheStats(*map(sum, zip(*(astuple(s.cache[name]) for s in shard_stats))))
            for name in indexes
        }
        layers = {
            name: LayerStatus(
                version=index.version,
                delta_size=0,
                num_polygons=index.num_polygons,
            )
            for name, index in indexes.items()
        }
        adaptation = self._adaptive.status() if self._adaptive is not None else {}
        shards = tuple(
            ShardStatus(shard=shard, stats=stats)
            for shard, stats in enumerate(shard_stats)
        )
        return self._recorder.snapshot(cache, layers, adaptation, shards=shards)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")
        if self._poisoned:
            raise RuntimeError(
                "service is inconsistent: a layer swap/add failed on some "
                "shards after succeeding on others; close it and rebuild"
            )

    def close(self) -> None:
        """Wait for an in-flight retrain (it installs while the lanes still
        serve), drain pending lookups, stop and reap every shard worker,
        unlink every segment the front published."""
        if self._adaptive is not None:
            self._adaptive.close()
        with self._lock:
            if self._closed:
                return
            # Flip under the lock: two racing close() calls could both
            # pass an unlocked check and double-release every segment.
            self._closed = True
        # Drain OUTSIDE the lock: the batcher's flush path dispatches
        # through _dispatch, which takes this same lock.
        self._batcher.close()
        with self._lock:
            self._shutdown()
            self._plane_bytes = {}
            self._set_snapshot_gauges(())

    def _shutdown(self) -> None:  #: requires(_lock)
        """Stop every lane, then unlink every segment the front owns —
        layers and ring; in that order, so no attach can race an unlink
        (and an attached mapping survives its unlink on POSIX anyway)."""
        for client in self._clients:
            client.close()
        _unlink(*self._segments.values())
        self._segments = {}
        self._ring.close()
        self._ring.unlink()
