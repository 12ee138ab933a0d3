"""Share-nothing sharded serving: saturate cores past the GIL.

A single-process :class:`~repro.serve.service.JoinService` is GIL-bound
on the Python-level portions of the probe.  This module partitions each
layer *by space* and serves every partition from its own process — the
partition-based scheme of Tsitsigkos et al. (*Parallel In-Memory
Evaluation of Spatial Joins*) applied to the paper's cell-id domain:

* :class:`ShardPlan` cuts the Hilbert curve into ``num_shards``
  contiguous leaf-id ranges, at quantiles of one cut weight per cell
  (:func:`_cut_weights`).  The super covering's cells are disjoint and
  stored in curve order, so every cell — and every point probing it —
  belongs to exactly one shard, and a shard's partition is one row
  range of the covering's arrays (views, no copy).
* A layer's snapshot publishes in TWO kinds of shared-memory segment,
  and the service in one more::

      geometry plane (one segment per layer, shared machine-wide)
        ring geometry | packed refinement edge buckets | polygon table
              ^ attach read-only   ^ attach     ...      ^ attach
      coverage planes (one private segment per shard)
        shard 0: covering subset | ACT store | lut
        shard 1: covering subset | ACT store | lut
        ...
      scatter ring (one segment per service, 1 << 16 points)
        lats | lngs | leaf cell ids | lane words (one int64 per lane)
        ^ the front writes a slice    ^ lane k publishes the slice's
                    ^ lane k writes     sequence number in word k
                      ids[a_k:b_k]
        ... then every lane selects, from all three planes, its own points

  A straddling polygon contributes covering cells to several coverage
  planes, but its geometry and bucket rows exist exactly once.  A
  worker composes the two planes via
  :meth:`~repro.core.flat.FlatSnapshot.from_planes` and refines through
  the attached index's ordinary engine: a point falls in exactly one
  shard's leaf range and a pair's PIP verdict depends only on the pair,
  so merged results need no front-side dedup.
* A **shard worker** is a spawned process hosting one ordinary
  :class:`JoinService` over its partition sub-indexes, which it
  *attaches* from the published segments (a buffer map, no store
  build).  Batch coordinates travel through one persistent scatter ring,
  never the pickle stream: the front writes each ring-sized slice of a
  batch once, in batch order, the lanes fill in the leaf cell ids (see
  "Two phases"), and every lane selects the points whose leaf id falls
  in its range (:func:`in_leaf_range`) out of the views it attached at
  start-up.  Only control messages and the (small) partial
  ``JoinResult`` statistics cross the pipe, and every lane is drained
  before the next slice is written, so none can still be reading the
  ring.
* :class:`ShardedJoinService` is the front: a
  :class:`~repro.serve.service.ServiceFront` whose dispatch scatters
  each batch, gathers the partial results and merges them with
  :func:`~repro.core.joins.merge_join_results`.  Swaps and adaptive
  retraining fan out per shard, and the merged
  :class:`~repro.serve.stats.ServiceStats` carries per-shard detail in
  ``stats.shards``.

**Two phases.**  The front computes no cell id — routing needs them all,
so that was a serial millisecond with every lane asleep.  It writes
``lats | lngs``, draws the slice's sequence number ``seq`` under the
dispatch lock and messages EVERY lane.  Phase 1: lane ``k`` of ``N``
computes the ids of its *positional* share ``[k·⌈total/N⌉, …)`` straight
into the id plane, then publishes ``words[k] = seq``.  Phase 2: it waits
until ``words[:N]`` all read ``seq`` (:func:`_await_lanes`: a poll that
gives the CPU away every time, so lanes sharing one CPU progress; bounded
by the skew between the lanes, not by a wake-up, and by half of
:data:`_LANE_TIMEOUT_S`), then selects by leaf range and joins.  A
lane whose phase 1 raised — and the front, for a lane its ``send`` failed
on — publishes ``-seq``, which fails every waiter at once; a failed wait
is an ordinary ``("err", …)`` reply, so pipes stay aligned.  Ids are
filled by whoever has them: the front writes a caller's ``cell_ids=`` and
``seq`` into every word with them, and a lane whose word reads ``seq``
skips phase 1.  Nothing spins while idle: between messages a lane blocks
in ``conn.recv()``.  Ordering, as far as it goes: a lane's id stores
precede its word store in program order, which x86-64 (TSO) keeps; each
poll elsewhere has a system call and an interpreter-lock hand-over
between the loads.  No more is claimed.

**Lane placement.**  A worker process (:func:`_shard_worker_main`, and
only there — never the caller's process) binds itself to one CPU of the
affinity mask it inherited (lane ``k`` to the ``k``-th of the sorted
mask, modulo its size) and switches itself to ``SCHED_BATCH``.  One
lane, one core keeps a partition's working set in that core's cache; a
batch task's wake-up does not preempt its waker, so the front finishes
fanning a slice out before any lane takes its CPU — without it the
lanes were observed to run one after the other.  Threads a lane starts
later (a shard-local retrain) inherit both.  A call the platform lacks
or refuses is skipped; there is nothing to configure.

``backend="inline"`` hosts the per-shard services in the calling process
instead: the same plane publication and attach, the same scatter ring,
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
import time
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cells.vectorized import range_bounds_from_cell_ids
from repro.core.adaptive import AdaptationPolicy
from repro.core.builder import PolygonIndex, build_store, ensure_version_floor
from repro.core.flat import (
    FlatSnapshot,
    attach_index,
    pack_coverage_plane,
    pack_geometry_plane,
)
from repro.core.joins import JoinResult, merge_join_results
from repro.core.morsels import OFFLINE_MORSEL_POINTS
from repro.core.super_covering import SuperCovering
from repro.obs import Observability, ObsConfig
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
# The shard plan: Hilbert cell-id range partitioning
# ----------------------------------------------------------------------


def _cut_weights(covering: SuperCovering) -> np.ndarray:
    """The weight the cuts balance, per covering row (``int64``): each
    polygon's total (cell, ref) entry count, placed on its median entry
    row in curve order.

    Rows index the *id-sorted* cell sequence, so each polygon's entries
    occupy a (mostly contiguous) band of rows along the space-filling
    curve, and the median entry row anchors the polygon at the center of
    its band.  A straddler thus weighs into exactly one shard's share
    (per-cell reference counts would count it into every shard it
    touches), and the anchor is cut-independent — the cuts are chosen
    from it, so it cannot depend on them.

    The median is deliberately preferred over the minimum covering cell
    id: coverings that straddle a curve discontinuity (a face boundary)
    split into a tiny low-id band plus the main band, and a min-id
    anchor then collapses *every* polygon's weight into the low-id
    sliver — observed on the bench ``neighborhoods`` dataset, where all
    anchors landed in the first ~750 of 121k cells and cut placement
    degenerated.  The median lands in the main band and keeps the weight
    distributed like entry mass.
    """
    counts = np.diff(covering.ref_offsets)
    entry_pids = (covering.packed_refs >> np.uint32(1)).astype(np.int64)
    entry_rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    poly_entries = np.bincount(entry_pids)
    # Stable sort by pid keeps each polygon's rows in ascending row
    # order (entries arrive row-major), so the group's middle element is
    # its median entry row.
    rows_by_pid = entry_rows[np.argsort(entry_pids, kind="stable")]
    starts = np.cumsum(poly_entries) - poly_entries
    referenced = poly_entries > 0
    weights = np.zeros(len(counts), dtype=np.int64)
    np.add.at(
        weights,
        rows_by_pid[(starts + poly_entries // 2)[referenced]],
        poly_entries[referenced],
    )
    return weights


@dataclass(frozen=True)
class ShardPlan:
    """A partition of one layer's covering into leaf-id ranges — the
    range partition of *Parallel In-Memory Evaluation of Spatial Joins*
    (Tsitsigkos et al., arXiv:1908.11740) over the paper's cell ids.

    ``boundaries`` holds ``num_shards - 1`` leaf-id cut points; shard
    ``s`` owns the half-open leaf range ``[boundaries[s-1],
    boundaries[s])`` (unbounded at the ends).  Cut points are the
    ``range_min`` of the cell they start, so every covering cell — whose
    leaf range never straddles a cut by disjointness — lands wholly in
    one shard, and shard ``s``'s cells are the covering rows
    ``[row_cuts[s], row_cuts[s+1])``.  Duplicate cut points are allowed
    (a pathologically hot cell can exceed a whole shard's weight share;
    a layer without cells cuts everything at 0); the shards they
    collapse simply stay empty, keeping shard ids stable in
    ``[0, num_shards)`` and every lane in every dispatch.
    """

    num_shards: int
    boundaries: np.ndarray  # (num_shards - 1,) uint64 leaf-id cut points
    row_cuts: np.ndarray  # (num_shards + 1,) covering rows per shard: [cut, next cut)

    @classmethod
    def from_index(cls, index: PolygonIndex, num_shards: int) -> "ShardPlan":
        """Plan ``num_shards`` partitions of an index's covering: the
        id-sorted cells are cut at the quantiles of :func:`_cut_weights`."""
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        covering = index.super_covering
        lo, hi = range_bounds_from_cell_ids(covering.cell_ids)
        if len(lo):
            cumulative = np.cumsum(_cut_weights(covering))
            targets = int(cumulative[-1]) * np.arange(1, num_shards) / num_shards
            rows = np.searchsorted(cumulative, targets, side="left")
            # Ascending, as the targets and the cells' range_mins are.
            boundaries = lo[np.minimum(rows, len(lo) - 1)]
        else:
            boundaries = np.zeros(num_shards - 1, dtype=np.uint64)
        # Disjointness keeps a cell's whole leaf range on one side of
        # every cut (cuts are range_min values of cells).
        if not np.array_equal(
            np.searchsorted(boundaries, lo, side="right"),
            np.searchsorted(boundaries, hi, side="right"),
        ):
            raise AssertionError(
                "shard cut splits a covering cell's leaf range; "
                "the covering is not disjoint"
            )
        row_cuts = np.concatenate(([0], np.searchsorted(lo, boundaries), [len(lo)]))
        return cls(num_shards, boundaries, row_cuts)

    def shard_for(self, leaf_ids: np.ndarray) -> np.ndarray:
        """The owning shard of each leaf cell id."""
        return np.searchsorted(
            self.boundaries, np.asarray(leaf_ids, dtype=np.uint64), side="right"
        )

    def leaf_ranges(self) -> list[tuple[int | None, int | None]]:
        """Each shard's half-open leaf-id range ``[lower, upper)`` between
        its two cut points, ``None`` where the shard is unbounded."""
        cuts = [None, *self.boundaries.tolist(), None]
        return list(zip(cuts[:-1], cuts[1:]))


def in_leaf_range(leaf_ids: np.ndarray, lower: int | None, upper: int | None) -> np.ndarray:
    """Which ids fall in ``[lower, upper)``: "id belongs to shard k", once.

    With ``(lower, upper)`` from :meth:`ShardPlan.leaf_ranges` this is
    ``shard_for(leaf_ids) == k`` without ranking every id against every
    cut (an id equal to a cut belongs to the shard the cut starts; equal
    cuts leave the shard between them empty).  A lane selects its points
    with it.
    """
    mask = np.ones(len(leaf_ids), dtype=bool)
    if lower is not None:
        mask &= leaf_ids >= np.uint64(lower)
    if upper is not None:
        mask &= leaf_ids < np.uint64(upper)
    return mask


# ----------------------------------------------------------------------
# Worker-side: payloads, service construction, the process main loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TwoLayerShardPart:  #: spawn_payload
    """One layer's partition as a geometry + coverage plane pair.

    The geometry segment is SHARED: every shard of the layer names the
    same segment and maps the same pages (published exactly once).  The
    coverage segment is this shard's own.  The worker composes the two
    back into one serveable snapshot
    (:meth:`~repro.core.flat.FlatSnapshot.from_planes`).
    """

    geometry_shm: str  # the layer's single shared geometry-plane segment
    coverage_shm: str  # this shard's private coverage-plane segment
    version: int  # the parent snapshot's version


@dataclass
class _WorkerPayload:  #: spawn_payload
    """Everything one shard worker needs to build its JoinService."""

    shard: int
    parts: dict[str, _TwoLayerShardPart]  # layer name -> partition
    ring_shm: str  # the front's one scatter ring, attached once per lane
    cache_cells: int
    adaptation: AdaptationPolicy | None
    obs: ObsConfig | None = None  # worker-side observability settings


def _index_from_part(
    part: _TwoLayerShardPart, *, fresh_version: bool
) -> PolygonIndex:
    """Attach the partition sub-index a part describes (no store build).

    The attach keeps its ``SharedMemory`` handles open for the index's
    whole lifetime (pinned as the snapshot owner) — closing one while
    numpy views into the buffers exist is an error, so the handles are
    simply dropped with the index.

    ``fresh_version=False`` stamps the parent snapshot's version (initial
    attach / add_layer: every shard of one snapshot agrees); ``True``
    stamps a fresh one (swap: the worker's current sub-index may carry a
    *later* local version from a shard-local adaptive retrain).  Either
    way the local version counter is floored above the parent snapshot's
    version, so such a retrain is always newer than what it replaces (the
    router refuses rollbacks).
    """
    ensure_version_floor(part.version)
    version = None if fresh_version else part.version
    geometry_shm = _attach_shm(part.geometry_shm)
    coverage_shm = _attach_shm(part.coverage_shm)
    snapshot = FlatSnapshot.from_planes(
        FlatSnapshot.from_buffer(geometry_shm.buf, owner=geometry_shm),
        FlatSnapshot.from_buffer(coverage_shm.buf, owner=coverage_shm),
    )
    return attach_index(snapshot, version=version)


def _build_shard_service(payload: _WorkerPayload) -> JoinService:
    layers = {
        name: _index_from_part(part, fresh_version=False)
        for name, part in payload.parts.items()
    }
    return JoinService(
        layers,
        cache_cells=payload.cache_cells,
        num_threads=1,  # share-nothing: one process == one lane of work
        adaptation=payload.adaptation,
        obs=Observability.from_config(payload.obs),
    )


#: Give the CPU to whoever else can run on it (a lane sharing this one).
_yield_cpu = getattr(os, "sched_yield", lambda: time.sleep(0))


def _await_lanes(words: np.ndarray, seq: int, lanes: int, timeout_s: float) -> None:
    """Phase 2's wait: return once ``words[:lanes]`` all read ``seq``,
    yielding the CPU between looks.  Only equality counts — an earlier
    slice's number, a stale larger one or anything unrelated keeps it
    waiting; ``-seq`` in any word raises at once, ``timeout_s`` passing
    raises too."""
    deadline = time.perf_counter() + timeout_s
    while True:
        seen = words[:lanes].tolist()
        if seen.count(seq) == lanes:
            return
        if -seq in seen:
            raise ShardWorkerError(seen.index(-seq), "failed before publishing its cell ids")
        if time.perf_counter() > deadline:
            late = next(lane for lane, word in enumerate(seen) if word != seq)
            raise ShardWorkerError(late, f"published no cell ids within {timeout_s} s")
        _yield_cpu()


def _apply_admin(
    service: JoinService,
    ring: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    msg: tuple,
    shard: int,
    build_seconds: float,
):
    """Execute one message against a shard's JoinService.

    The one handler both backends run — the process worker loop wraps
    its outcome in ``("ok"|"err", ...)``, the inline client re-raises —
    so the backends cannot diverge in behavior.  A generator of two
    items, ``None`` where it pauses and then the reply: a worker takes
    both at once, the inline client takes every lane to its pause first.

    ``join`` runs the module docstring's two phases over the first
    ``total`` slots of ``ring`` (the lane's :func:`_ring_planes` views),
    pausing between them, then joins the lane's points — leaf id in
    ``[lower, upper)``; a lane without any replies the zero result.
    Selection keeps batch order, so with ``materialize`` the reply's
    ``pair_points`` are slice positions in the order a stable sort by
    shard would give.  ``trace`` is the front dispatch's ``(trace_id,
    parent_span_id)`` or ``None``; a traced join opens a ``shard`` root
    under that remote parent (``barrier_wait_s`` on it, a ``cell_ids``
    child for phase 1), and the reply, ``(result, finished_spans)``,
    carries its spans for the front to adopt (none when untraced).
    ``ping`` replies with the service construction time and, where the
    platform has them, the lane's CPU mask and scheduling policy; layer
    ops with their sub-index materialization time (the attach latency
    meter).
    """
    op = msg[0]
    if op == "join":
        _, layer, total, seq, lanes, timeout_s, exact, materialize, trace, lower, upper = msg
        ring_lats, ring_lngs, ring_ids, words = ring
        tracer = service.tracer
        _, index = service._router.resolve(layer)
        with tracer.remote_root("shard", trace, shard=shard) as root:
            if words[shard] != seq:  # phase 1, unless the front brought the ids
                step = -(-total // lanes)
                a = min(shard * step, total)
                b = min(a + step, total)
                try:
                    with tracer.span("cell_ids", points=b - a):
                        ring_ids[a:b] = index.cell_ids_for(ring_lats[a:b], ring_lngs[a:b])
                except BaseException:
                    words[shard] = -seq
                    raise
                words[shard] = seq
            yield
            with Timer() as wait:
                _await_lanes(words, seq, lanes, timeout_s)
            root.set(barrier_wait_s=wait.seconds)
            mine = np.flatnonzero(in_leaf_range(ring_ids[:total], lower, upper))
            if len(mine):
                result = service.join(
                    ring_lats.take(mine), ring_lngs.take(mine), layer=layer, exact=exact,
                    materialize=materialize, cell_ids=ring_ids.take(mine),
                )
                if materialize:
                    result.pair_points = mine[result.pair_points]
            else:
                result = merge_join_results(
                    (), num_points=0, num_polygons=len(index.polygons),
                    wall_seconds=0.0, materialize=materialize,
                )
        yield result, (() if trace is None else tracer.take_last_trace())
        return
    yield  # nothing to publish first
    if op == "ping":
        report: dict[str, object] = {"build_seconds": build_seconds}
        if hasattr(os, "sched_getaffinity"):
            report["affinity"] = sorted(os.sched_getaffinity(0))
            report["policy"] = os.sched_getscheduler(0)
        yield report
    elif op == "stats":
        yield service.stats()
    elif op in ("swap", "add_layer"):
        _, name, part = msg
        with Timer() as timer:
            index = _index_from_part(part, fresh_version=op == "swap")
        if op == "swap":
            service.swap_layer(name, index)
        else:
            service.add_layer(name, index)
        yield {"build_seconds": timer.seconds}
    else:
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


def _ring_planes(shm: SharedMemory) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scatter ring's four planes, as views of the segment: ``lats |
    lngs | leaf cell ids``, :data:`OFFLINE_MORSEL_POINTS` slots each, then
    the lane words (the rest of the segment: at least one per lane)."""
    points = OFFLINE_MORSEL_POINTS
    return (
        np.frombuffer(shm.buf, np.float64, count=points),
        np.frombuffer(shm.buf, np.float64, count=points, offset=8 * points),
        np.frombuffer(shm.buf, np.uint64, count=points, offset=16 * points),
        np.frombuffer(shm.buf, np.int64, offset=24 * points),
    )


def _fill_ring(shm: SharedMemory, word: int, *columns: np.ndarray) -> None:
    """Write one slice's ``lats, lngs`` (and the caller's cell ids, if it
    brought them) into the ring, in batch order, and ``word`` into every
    lane word.  The views die with this frame: no traceback of a failed
    dispatch can keep one exported past the front's ``close()``."""
    *planes, words = _ring_planes(shm)
    for plane, column in zip(planes, columns):
        plane[: len(column)] = column
    words[:] = word


def _shard_worker_main(conn, payload: _WorkerPayload) -> None:
    """Entry point of one shard worker process (spawn-safe: module level).

    Places itself, attaches the partition sub-indexes and the scatter
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
                steps = _apply_admin(
                    service, ring, msg, payload.shard, build_timer.seconds
                )
                next(steps)
                reply = ("ok", next(steps))
            except BaseException:
                reply = ("err", traceback.format_exc())
            conn.send(reply)
    finally:
        service.close()
        conn.close()


# ----------------------------------------------------------------------
# Front-side shard clients
# ----------------------------------------------------------------------


class _ProcessShard:
    """Front-side handle of one spawned shard worker."""

    def __init__(self, ctx, payload: _WorkerPayload):
        self.shard = payload.shard
        parent, child = ctx.Pipe()
        self._conn = parent
        self._process = ctx.Process(
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
    """In-process shard client: same partitioning, no processes.

    The test backend (and a debugging aid): the shard-boundary
    equivalence properties run thousands of examples without paying
    process spawns.  Messages go through :func:`_apply_admin` exactly as
    in a worker — a join fills and selects from the same attached
    scatter ring — with ``start`` taking it to its pause and ``finish``
    from there: :func:`_scatter_gather` starts every lane before it
    finishes any, so no lane waits for ids nobody has computed yet.  A
    failure re-raises the ORIGINAL exception from ``finish`` (no pipe to
    flatten it into a traceback string).  Lane placement is the one
    thing not shared: it belongs to a worker process only.
    """

    def __init__(self, payload: _WorkerPayload):
        self.shard = payload.shard
        with Timer() as build_timer:
            self._service = _build_shard_service(payload)
        self._build_seconds = build_timer.seconds
        self._ring_shm = _attach_shm(payload.ring_shm)
        self._ring = _ring_planes(self._ring_shm)
        self._steps = None  # the started handler, paused
        self._failure: BaseException | None = None  # ... or what it raised

    def start(self, msg: tuple) -> None:
        self._steps = _apply_admin(
            self._service, self._ring, msg, self.shard, self._build_seconds
        )
        try:
            next(self._steps)
        except BaseException as exc:
            self._failure = exc

    def finish(self) -> object:
        assert self._steps is not None, "finish() without a start()"
        steps, failure = self._steps, self._failure
        self._steps = self._failure = None
        if failure is not None:
            raise failure
        return next(steps)

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
    unsent=None,
) -> tuple[list, list[BaseException]]:
    """Send every request, then drain every worker that received one.

    ``sends`` is a list of ``(client, message)`` pairs.  The drain
    discipline is the pipe-alignment invariant of the whole front: a
    worker that received a request MUST be drained even after another
    worker failed (and workers after a failed SEND must not be sent to),
    or a queued reply would be mistaken for the answer to a later
    request — and it is what makes the scatter ring reusable: once this
    returns, no lane is still reading it.  ``unsent(client)`` runs for
    the client whose send failed, before anything is drained (a join
    tells the lanes that wait for it).  Returns ``(gathered, errors)``:
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
            if unsent is not None:
                unsent(client)
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
#: ``_ProcessShard.close``.  A lane waits half of it for the other lanes'
#: cell ids (:func:`_await_lanes`; the front sends it with every join), so
#: a lane reporting a wedged peer always answers before the front would
#: give up on it.
_LANE_TIMEOUT_S = 10.0

#: The front's gauges (metric name -> help), set by
#: :meth:`ShardedJoinService._set_snapshot_gauges`.
_SHARD_GAUGES = {
    "shard_snapshot_bytes": "flat snapshot payload bytes published by the shard front",
    "shard_attach_seconds": "slowest worker-side sub-index attach, last fan-out",
    "shard_geometry_bytes": "shared geometry-plane bytes published by the shard front",
    "shard_coverage_bytes": "per-shard coverage-plane bytes published by the front",
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


class ShardedJoinService(ServiceFront):
    """A multi-process, space-partitioned :class:`JoinService` front.

    Parameters
    ----------
    layers:
        A single :class:`PolygonIndex` (served as layer ``"default"``)
        or a mapping of layer name to index.  Sharded serving requires
        immutable snapshots; dynamic indexes belong in a single-process
        service.
    num_shards:
        Partitions per layer == worker processes.  Each worker hosts one
        :class:`JoinService` over its partitions of every layer.
    backend:
        ``"process"`` (default) spawns one worker process per shard,
        each placed on its own core (module docstring); ``"inline"``
        hosts the shard services in-process (tests, debugging).
    adaptation:
        Fans out to every shard worker: each shard runs its own
        adaptation loop over its partition and retrains/swaps locally.
    start_method:
        ``multiprocessing`` start method for the process backend.
        Defaults to ``"spawn"`` — the worker entry point is module-level
        and payloads are pickled explicitly, so workers never depend on
        forked state.
    obs:
        An :class:`~repro.obs.Observability` bundle for the front.  Its
        picklable settings also ship inside every worker payload, so
        shard workers run their own tracer; a traced dispatch's worker
        spans return over the pipe and are adopted into the front's
        ring (see :func:`_apply_admin`) — one end-to-end trace.

    ``join`` results are bit-identical (every ``JoinResult`` statistic)
    to the equivalent single-process service and to ``PolygonIndex.join``
    — points route to exactly one shard, and partitioning never alters
    any cell's reference set.
    """

    def __init__(
        self,
        layers: PolygonIndex | Mapping[str, PolygonIndex],
        *,
        num_shards: int = 2,
        default_layer: str | None = None,
        cache_cells: int = 4096,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        latency_window: int = 8192,
        adaptation: AdaptationPolicy | None = None,
        backend: str = "process",
        start_method: str = "spawn",
        obs: Observability | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        # The front's layer registry IS a LayerRouter (copy-on-write
        # reads, default resolution, rollback checks), as JoinService's.
        super().__init__(
            layers,
            default_layer=default_layer,
            latency_window=latency_window,
            obs=obs,
        )
        for name, index in self._router.items():
            _check_shardable(name, index)
        self.num_shards = num_shards
        self.backend = backend
        self._gauges = (
            {
                name: self._metrics.gauge(name, description)
                for name, description in _SHARD_GAUGES.items()
            }
            if self._metrics is not None
            else {}
        )
        self._plans: dict[str, ShardPlan] = {  #: guarded_by(_lock)
            name: ShardPlan.from_index(index, num_shards)
            for name, index in self._router.items()
        }
        # Segments owned by the front, per layer, CURRENT generation;
        # retired (and unlinked) on swap and close.  A layer's FIRST is
        # its shared geometry plane, then one coverage segment per shard.
        self._segments: dict[str, tuple[SharedMemory, ...]] = {}  #: guarded_by(_lock)
        # Published (geometry, per-shard) payload bytes per layer,
        # current generation.
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
        self._ring = SharedMemory(
            create=True, size=24 * OFFLINE_MORSEL_POINTS + 8 * num_shards
        )
        self._seq = 0  #: guarded_by(_lock) -- the last ring slice's number
        try:
            parts_by_layer: dict[str, list] = {}
            for name, index in self._router.items():
                parts, segments, plane_bytes = self._publish_parts(
                    self._plans[name], index
                )
                parts_by_layer[name] = parts
                self._segments[name] = segments
                self._plane_bytes[name] = plane_bytes
            payloads = [
                _WorkerPayload(
                    shard=shard,
                    parts={
                        name: parts[shard]
                        for name, parts in parts_by_layer.items()
                    },
                    ring_shm=self._ring.name,
                    cache_cells=cache_cells,
                    adaptation=adaptation,
                    obs=obs.config() if obs is not None else None,
                )
                for shard in range(num_shards)
            ]
            if backend == "inline":
                self._clients = [_InlineShard(p) for p in payloads]
            else:
                # Start the parent's resource tracker BEFORE creating
                # workers: forked children must inherit it (a worker that
                # lazily spawns its own on shm attach would warn about
                # "leaked" segments the front rightly owns and unlinks).
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
                ctx = get_context(start_method)
                self._clients = [_ProcessShard(ctx, p) for p in payloads]
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
        self._start_batcher(max_batch, max_wait_ms)

    # ------------------------------------------------------------------
    # Plans and snapshot segment publication
    # ------------------------------------------------------------------

    def plan(self, layer: str | None = None) -> ShardPlan:
        """The live shard plan of one layer."""
        with self._lock:
            name, _ = self._router.resolve(layer)
            return self._plans[name]

    @property
    def spawn_seconds(self) -> tuple[float, ...]:
        """Per-shard worker-side service construction time (the spawn
        barrier's ping replies): a zero-copy attach of the planes."""
        return self._spawn_seconds

    def _publish_parts(
        self, plan: ShardPlan, index: PolygonIndex
    ) -> tuple[
        list[_TwoLayerShardPart], tuple[SharedMemory, ...], tuple[int, int]
    ]:
        """One part per shard, published as front-owned segments.

        Returns ``(parts, segments, (geometry_bytes, coverage_bytes))``:
        the layer's single shared geometry-plane segment leads the
        tuple, the per-shard coverage-plane segments follow.  They are
        the new generation's — the caller installs them into
        ``_segments`` only once the fan-out succeeded, and releases them
        itself on failure.
        """
        parts: list[_TwoLayerShardPart] = []
        segments: list[SharedMemory] = []
        try:
            geometry = pack_geometry_plane(index)
            geometry_segment = geometry.to_shared_memory()
            segments.append(geometry_segment)
            geometry_bytes = int(geometry.nbytes)
            coverage_bytes = 0
            for shard in range(self.num_shards):
                # A partition is a row range of the (disjoint) covering:
                # no coverer or conflict resolution runs, and probing it is
                # bit-identical to probing the full index for any point
                # whose leaf id falls inside the partition's cell ranges.
                covering = index.super_covering.row_range(
                    *plan.row_cuts[shard : shard + 2]
                )
                store = build_store(
                    covering, fanout_bits=index.store.fanout_bits
                )
                coverage = pack_coverage_plane(
                    covering, store, meta_extra={"shard": shard}
                )
                segment = coverage.to_shared_memory()
                segments.append(segment)
                coverage_bytes += int(coverage.nbytes)
                parts.append(
                    _TwoLayerShardPart(
                        geometry_shm=geometry_segment.name,
                        coverage_shm=segment.name,
                        version=int(index.version),
                    )
                )
        except BaseException:
            self._release_segments({"": tuple(segments)})
            raise
        return parts, tuple(segments), (geometry_bytes, coverage_bytes)

    @staticmethod
    def _release_segments(
        segments: Mapping[str, tuple[SharedMemory, ...]]
    ) -> None:
        """Unlink (and drop) every segment of the given generations."""
        for generation in segments.values():
            for segment in generation:
                with contextlib.suppress(FileNotFoundError):  # pragma: no cover - already gone
                    segment.close()
                    segment.unlink()

    def replication_factor(self, layer: str | None = None) -> float:
        """Published geometry copies per distinct polygon: 1.0, as a layer's
        geometry plane is one segment.  Kept for the benchmark's
        ``serve.replication_factor`` row, which ROADMAP item C retires."""
        self._router.resolve(layer)  # unknown layers raise, as elsewhere
        return 1.0

    def plane_bytes(self, layer: str | None = None) -> tuple[int, int]:
        """One layer's published ``(shared geometry, per-shard coverage)``
        payload bytes for the current generation."""
        with self._lock:
            name, _ = self._router.resolve(layer)
            return self._plane_bytes[name]

    #: requires(_lock)
    def _set_snapshot_gauges(self, build_seconds: Sequence[float]) -> None:
        if not self._gauges:
            return
        planes = list(self._plane_bytes.values())
        values = {
            "shard_snapshot_bytes": sum(
                segment.size
                for generation in self._segments.values()
                for segment in generation
            ),
            "shard_geometry_bytes": sum(geometry for geometry, _ in planes),
            "shard_coverage_bytes": sum(coverage for _, coverage in planes),
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
        lane_spans: list = []  # the lanes' finished spans, when traced
        with self._lock, Timer() as timer:
            # Resolve UNDER the dispatch lock (the caller's `index` is
            # only its routing check): index, plan and the workers'
            # sub-indexes belong to one generation even when a
            # swap_layer lands between that check and this dispatch.
            _, index = self._router.resolve(name)
            ranges = self._plans[name].leaf_ranges()

            def poison(client) -> None:  # no word will come from it: fail the waiters
                _ring_planes(self._ring)[3][client.shard] = -self._seq

            # Ring-sized slices: one for every batch a micro-batcher or
            # the benchmark sends.  A slice is gathered before the next
            # is written, so no lane can still be reading the ring.
            for lo in range(0, max(len(lats), 1), OFFLINE_MORSEL_POINTS):
                window = slice(lo, lo + OFFLINE_MORSEL_POINTS)
                total = len(lats[window])
                self._seq += 1
                with self._tracer.span("scatter", points=total, shards=lanes):
                    # Ids the caller brought are published by the write.
                    _fill_ring(
                        self._ring, self._seq if brought else 0, lats[window],
                        lngs[window], *(ids[window] for ids in brought),
                    )
                    msg = ("join", name, total, self._seq, lanes, _LANE_TIMEOUT_S / 2,
                           exact, materialize, trace_ctx)
                    sends = [(c, (*msg, *bounds)) for c, bounds in zip(self._clients, ranges)]
                with self._tracer.span("gather", shards=lanes) as span:
                    replies, errors = _scatter_gather(sends, unsent=poison)
                    if errors:
                        raise errors[0]
                    ids_seconds = [
                        s.seconds for _, spans in replies for s in spans if s.name == "cell_ids"
                    ]
                    span.set(
                        lane_seconds_max=max(
                            r.probe_seconds + r.refine_seconds for r, _ in replies
                        ),
                        lane_ids_seconds_max=max(ids_seconds, default=0.0),
                    )
                if not brought:
                    cell_ids[window] = _ring_planes(self._ring)[2][:total]
                for result, spans in replies:
                    if materialize and lo:  # slice -> batch positions
                        result.pair_points += lo
                    parts.append(result)
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
        return merged, cell_ids

    # ------------------------------------------------------------------
    # Layer management (fans out per shard)
    # ------------------------------------------------------------------

    def swap_layer(self, name: str, index: PolygonIndex) -> PolygonIndex:
        """Atomically replace a layer with a newer snapshot on every shard.

        Re-plans the partition for the new snapshot and fans the swap
        out; the workers attach their new sub-indexes in parallel, and
        the dispatch lock makes the fan-out atomic with respect to joins.
        """
        self._check_open()
        _check_shardable(name, index)
        with self._lock:
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
        self._check_open()
        if not name:
            raise ValueError("layer name must be non-empty")
        _check_shardable(name, index)
        with self._lock:
            if name in self._router:
                raise ValueError(f"layer {name!r} is already registered")
            self._install_layer("add_layer", name, index)

    #: requires(_lock)
    def _install_layer(self, op: str, name: str, index: PolygonIndex) -> None:
        """Plan, publish, fan out, then install one layer generation.

        ``op`` is both the worker message (``"swap"`` / ``"add_layer"``)
        and the event name.  The new generation is installed only after
        EVERY shard applied it, so dispatches always scatter by the plan
        matching what the workers serve.
        """
        plan = ShardPlan.from_index(index, self.num_shards)
        parts, segments, plane_bytes = self._publish_parts(plan, index)
        try:
            reports = self._admin_fan_out([(op, name, part) for part in parts])
        except BaseException:
            # Whether the workers kept the previous generation or the
            # service got poisoned, the new segments are the front's to
            # reclaim (attached workers keep mappings).
            self._release_segments({name: segments})
            raise
        # A retired generation's segments unlink now; workers holding
        # the old attachment keep their mappings until they drop it.
        self._release_segments({name: self._segments.pop(name, ())})
        self._segments[name] = segments
        self._plans[name] = plan
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

    def _admin_fan_out(self, messages: list[tuple]) -> list:  #: requires(_lock)
        """Scatter one admin message per shard; gather before returning.

        All-or-nothing: if SOME shards applied the change and others did
        not, the workers disagree on the layer's partition and no plan
        can match all of them — the service is poisoned (every later
        call raises) rather than silently serving mixed generations.  A
        failure on EVERY shard leaves the previous state intact, so the
        service stays usable.  Returns the per-shard replies (the
        workers' sub-index materialization timings).
        """
        gathered, errors = _scatter_gather(list(zip(self._clients, messages)))
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
        ``ServiceStats`` (adaptation state included) rides along in
        ``shards``.  Adaptation entries are keyed ``layer@shardN`` so the
        point-weighted ``live_sth_rate`` and ``retrains`` aggregates stay
        correct across the fan-out.
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
        cache: dict[str, CacheStats] = {}
        for name in indexes:
            slices = [s.cache[name] for s in shard_stats if name in s.cache]
            if slices:
                cache[name] = CacheStats(
                    capacity=sum(s.capacity for s in slices),
                    size=sum(s.size for s in slices),
                    hits=sum(s.hits for s in slices),
                    misses=sum(s.misses for s in slices),
                    evictions=sum(s.evictions for s in slices),
                    bypassed=sum(s.bypassed for s in slices),
                )
        layers = {
            name: LayerStatus(
                version=index.version,
                delta_size=0,
                num_polygons=index.num_polygons,
            )
            for name, index in indexes.items()
        }
        adaptation = {
            f"{layer}@shard{shard}": status
            for shard, stats in enumerate(shard_stats)
            for layer, status in stats.adaptation.items()
        }
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
        """Drain pending lookups, stop and reap every shard worker, unlink
        every segment the front published."""
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
        planes and ring; in that order, so no attach can race an unlink
        (and an attached mapping survives its unlink on POSIX anyway)."""
        for client in self._clients:
            client.close()
        self._release_segments(self._segments)
        self._segments = {}
        self._ring.close()
        self._ring.unlink()
