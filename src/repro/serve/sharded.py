"""Share-nothing sharded serving: saturate cores past the GIL.

The probe/refine join is embarrassingly parallel, but a single-process
:class:`~repro.serve.service.JoinService` is GIL-bound on the
Python-level portions of the probe-heavy paths.  This module partitions
each layer *by space* and serves every partition from its own process —
the partition-based scheme of Tsitsigkos et al. (*Parallel In-Memory
Evaluation of Spatial Joins*) applied to the paper's cell-id domain:

* :class:`ShardPlan` cuts the Hilbert curve into ``num_shards``
  contiguous leaf-id ranges.  The super covering's cells are disjoint
  and stored in curve order, so every cell — and therefore every point
  probing it — belongs to exactly one shard, and a shard's partition is
  one contiguous row range of the covering's arrays (views, no copy).  Every polygon gets a *home shard*: the shard of
  its median covering entry in curve order (cut-independent, so it
  exists before any cuts do).  Each shard's (cell, ref) entries then
  classify into **owned** (the polygon is homed here) vs **borrowed**
  (its covering straddles a cut from another shard) classes — the
  classes of *Two-layer Space-oriented Partitioning for Non-point Data*
  (Tsitsigkos et al., arXiv:2307.09256) in the paper's cell-id domain.
  Cut points balance on owned work only, since borrowed entries would
  otherwise distort the weights toward boundary-heavy shards; the plan
  surfaces ``replication_factor`` and per-class counts.
* A layer's snapshot publishes in TWO kinds of shared-memory segment::

      geometry plane (one segment per layer, shared machine-wide)
        ring geometry | packed refinement edge buckets | polygon table
              ^ attach read-only   ^ attach     ...      ^ attach
      coverage planes (one private segment per shard)
        shard 0: covering subset | ACT store | lut
        shard 1: covering subset | ACT store | lut
        ...

  A straddling polygon contributes covering cells to several coverage
  planes, but its geometry and bucket rows exist exactly once —
  measured replication factor 1.0 by construction.  Worker-side, each
  shard composes the two planes via
  :meth:`~repro.core.flat.FlatSnapshot.from_planes` and refines through
  the attached index's ordinary engine, which adopts the geometry
  plane's bucket table: a pair's PIP verdict depends only on the pair,
  so the owned/borrowed classes live in the *plan* (cut balancing,
  ``ShardStatus`` counts) and merged results need no front-side dedup.
* A **shard worker** is a spawned process hosting one ordinary
  :class:`JoinService` over its partition sub-indexes, which it
  *attaches* from the published segments (a buffer map, no store
  build).  Batch coordinates travel through shared-memory buffers too,
  never the pickle stream; only the control messages and the (small)
  partial ``JoinResult`` statistics cross the pipe.
* :class:`ShardedJoinService` is the front: a
  :class:`~repro.serve.service.ServiceFront` (the ``join`` /
  ``join_layers`` / ``lookup`` / ``submit`` surface it shares with
  ``JoinService``) whose dispatch scatters each batch to the owning
  shards, gathers the partial results, and merges them with
  :func:`~repro.core.joins.merge_join_results` — the merge the join
  driver's morsel schedule ends in.  Swaps and workload-adaptive
  retraining fan out per shard, and the merged
  :class:`~repro.serve.stats.ServiceStats` carries per-shard detail in
  ``stats.shards``.

``backend="inline"`` hosts the per-shard services in the calling process
instead.  Everything else is the same code: the same plane publication
and attach, the same shared-memory scatter buffer, the same message
handler (:func:`_apply_admin`) and the same merge — which is what the
shard-boundary equivalence tests exercise exhaustively and what
debugging uses.

The front serializes scatter/gather dispatches with one lock (a worker
pipe is not safe for interleaved use anyway); parallelism comes from
splitting each batch across the shard processes, not from overlapping
front-side dispatches.
"""

from __future__ import annotations

import contextlib
import threading
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


def home_rows_from_entries(
    entry_rows: np.ndarray, entry_pids: np.ndarray, num_polygons: int
) -> np.ndarray:
    """Home-cell row per polygon id: the median covering entry in curve order.

    ``entry_rows``/``entry_pids`` are the flattened (cell, polygon-ref)
    entry arrays of a super covering, with rows indexing the *id-sorted*
    cell sequence — so each polygon's entries occupy a (mostly
    contiguous) band of rows along the space-filling curve, and the
    median entry row anchors the polygon at the center of its band.
    That cell is cut-independent, which is what lets the sharded serving
    layer assign every polygon one *home shard* before any cut points
    exist: the home shard is simply the shard the home cell lands in.

    The median is deliberately preferred over the minimum covering cell
    id: coverings that straddle a curve discontinuity (a face boundary)
    split into a tiny low-id band plus the main band, and a min-id
    anchor then collapses *every* polygon's home into the low-id sliver
    — observed on the bench ``neighborhoods`` dataset, where all homes
    landed in the first ~750 of 121k cells and owned-work cut placement
    degenerated.  The median lands in the main band and keeps owned
    work distributed like entry mass.

    Returns an ``int64`` array of length ``num_polygons`` holding each
    polygon's home row, ``-1`` for unreferenced ids (holes in the id
    space).
    """
    entry_rows = np.asarray(entry_rows, dtype=np.int64)
    entry_pids = np.asarray(entry_pids, dtype=np.int64)
    counts = np.bincount(entry_pids, minlength=num_polygons)
    if len(counts) > num_polygons:
        raise ValueError(
            f"entry pid {int(entry_pids.max())} out of range for "
            f"{num_polygons} polygons"
        )
    # Stable sort by pid keeps each polygon's rows in ascending row
    # order (entries arrive row-major), so the group's middle element is
    # its median entry row.
    order = np.argsort(entry_pids, kind="stable")
    rows_by_pid = entry_rows[order]
    starts = np.cumsum(counts) - counts
    referenced = counts > 0
    home = np.full(num_polygons, -1, dtype=np.int64)
    home[referenced] = rows_by_pid[(starts + counts // 2)[referenced]]
    return home


def owned_entry_mask(
    entry_shards: np.ndarray, entry_pids: np.ndarray, home_shards: np.ndarray
) -> np.ndarray:
    """Class-assignment kernel: is each (cell, ref) entry *owned*?

    An entry is owned when it lives in its polygon's home shard and
    *borrowed* when the polygon's covering straddles a cut into a
    foreign shard.  Every entry belongs to exactly one class (a boolean
    per entry), so the classes partition a plan's refinement work with
    no overlap and shard results need no cross-shard dedup.
    """
    entry_pids = np.asarray(entry_pids, dtype=np.int64)
    return np.asarray(home_shards)[entry_pids] == np.asarray(
        entry_shards, dtype=np.int64
    )


@dataclass(frozen=True)
class ShardPlan:
    """A partition of one layer's covering into leaf-id ranges.

    ``boundaries`` holds ``num_shards - 1`` leaf-id cut points; shard
    ``s`` owns the half-open leaf range ``[boundaries[s-1],
    boundaries[s])`` (unbounded at the ends).  Cut points are the
    ``range_min`` of the cell they start, so every covering cell — whose
    leaf range never straddles a cut by disjointness — lands wholly in
    one shard.  Duplicate cut points are allowed (a pathologically hot
    cell can exceed a whole shard's weight share); the shards they
    collapse simply stay empty, keeping shard ids stable in
    ``[0, num_shards)``.

    Every *referenced* polygon has a **home shard** — the shard holding
    its median (cell, ref) entry in curve order, a property of the
    covering alone and independent of where the cuts land (the median
    is robust to coverings that straddle a curve discontinuity, where a
    min-id anchor would collapse every home into one sliver).  A shard's polygons then split
    into ``owned`` (homed here) and ``borrowed`` (covering cells here,
    homed elsewhere — the straddlers), and the same classification
    applies to the (cell, ref) entries (``owned_weights`` vs
    ``borrowed_weights``).  Cuts balance on ``owned_work``: each
    polygon's TOTAL entry count attributed to its home cell, so a
    boundary-heavy covering does not double-count straddlers into every
    shard they touch when choosing where to cut.
    """

    num_shards: int
    boundaries: np.ndarray  # (num_shards - 1,) uint64 leaf-id cut points
    owned: tuple[tuple[int, ...], ...]  # polygon ids homed per shard
    borrowed: tuple[tuple[int, ...], ...]  # straddlers referenced per shard
    row_cuts: np.ndarray  # (num_shards + 1,) covering rows per shard: [cut, next cut)
    cell_weights: tuple[int, ...]  # (cell, ref) entries per shard
    owned_weights: tuple[int, ...]  # owned-class entries per shard
    borrowed_weights: tuple[int, ...]  # borrowed-class entries per shard
    owned_work: tuple[int, ...]  # Σ entry count of polygons homed per shard
    home_shards: np.ndarray  # (num_polygons,) int64 home shard, -1 = unreferenced

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Polygon ids referenced per shard (owned ∪ borrowed, sorted)."""
        return tuple(
            tuple(sorted(self.owned[shard] + self.borrowed[shard]))
            for shard in range(self.num_shards)
        )

    @property
    def replication_factor(self) -> float:
        """Per-shard polygon slots per distinct referenced polygon.

        Exactly 1.0 when no covering straddles a cut.  This is what a
        replicate-the-straddlers publication would materialize in
        polygon-table copies; the two-layer publication stores geometry
        once regardless (its measured factor is 1.0 by construction).
        """
        referenced = int(np.count_nonzero(self.home_shards >= 0))
        if referenced == 0:
            return 1.0
        slots = sum(
            len(self.owned[shard]) + len(self.borrowed[shard])
            for shard in range(self.num_shards)
        )
        return slots / referenced

    @classmethod
    def from_index(cls, index: PolygonIndex, num_shards: int) -> "ShardPlan":
        """Plan ``num_shards`` partitions of an index's covering.

        Each cell is weighted by the owned work homed there — every
        polygon's total (cell, ref) entry count attributed to its home
        cell — and the id-sorted cell sequence is cut at the weighted
        quantiles, so straddlers count once toward exactly one shard's
        share (weighting by per-cell reference counts instead would let
        a straddler weigh into every shard it touches).
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        num_polygons = len(index.polygons)
        covering = index.super_covering
        ids = covering.cell_ids
        counts = np.diff(covering.ref_offsets)
        entry_pids = (covering.packed_refs >> np.uint32(1)).astype(np.int64)
        num_cells = len(ids)
        # One row index per (cell, ref) entry, in id-sorted cell order.
        entry_rows = np.repeat(np.arange(num_cells, dtype=np.int64), counts)
        # Home cell (row) of every polygon: its MEDIAN covering entry in
        # curve order — defined before any cuts exist, so the owned-work
        # weights the cuts balance on cannot depend on the cuts themselves.
        home_rows = home_rows_from_entries(entry_rows, entry_pids, num_polygons)
        referenced = home_rows >= 0
        poly_entries = np.bincount(entry_pids, minlength=num_polygons)
        owned_work_per_cell = np.zeros(num_cells, dtype=np.int64)
        np.add.at(
            owned_work_per_cell, home_rows[referenced], poly_entries[referenced]
        )
        lo, hi = range_bounds_from_cell_ids(ids)
        if num_shards == 1 or num_cells == 0:
            boundaries = np.zeros(0, dtype=np.uint64)
        else:
            cumulative = np.cumsum(owned_work_per_cell)
            total = int(cumulative[-1])
            cuts = []
            for k in range(1, num_shards):
                target = total * k / num_shards
                idx = int(np.searchsorted(cumulative, target, side="left"))
                idx = min(idx, num_cells - 1)
                cuts.append(int(lo[idx]))
            boundaries = np.asarray(sorted(cuts), dtype=np.uint64)
        if boundaries.size:
            shard_of_cell = np.searchsorted(boundaries, lo, side="right")
            # Disjointness guarantees a cell's whole leaf range falls on
            # one side of every cut (cuts are range_min values of cells).
            hi_side = np.searchsorted(boundaries, hi, side="right")
            if not np.array_equal(hi_side, shard_of_cell):
                raise AssertionError(
                    "shard cut splits a covering cell's leaf range; "
                    "the covering is not disjoint"
                )
        else:
            shard_of_cell = np.zeros(num_cells, dtype=np.int64)
        home_shards = np.full(num_polygons, -1, dtype=np.int64)
        home_shards[referenced] = shard_of_cell[home_rows[referenced]]
        entry_shards = shard_of_cell[entry_rows]
        owned_mask = owned_entry_mask(entry_shards, entry_pids, home_shards)
        cell_weights = np.bincount(entry_shards, minlength=num_shards)
        owned_weights = np.bincount(
            entry_shards[owned_mask], minlength=num_shards
        )
        owned_work = np.zeros(num_shards, dtype=np.int64)
        np.add.at(
            owned_work, home_shards[referenced], poly_entries[referenced]
        )
        owned_ids = tuple(
            tuple(np.flatnonzero(home_shards == shard).tolist())
            for shard in range(num_shards)
        )
        # Distinct borrowed (shard, polygon) pairs via one composite-key
        # unique — a straddler can enter a shard through many cells.
        borrowed_lists: list[list[int]] = [[] for _ in range(num_shards)]
        b_shards = entry_shards[~owned_mask]
        b_pids = entry_pids[~owned_mask]
        if len(b_pids):
            span = np.int64(num_polygons)
            unique_keys = np.unique(b_shards * span + b_pids)
            for shard, pid in zip(
                (unique_keys // span).tolist(), (unique_keys % span).tolist()
            ):
                borrowed_lists[shard].append(pid)
        return cls(
            num_shards=num_shards,
            boundaries=boundaries,
            owned=owned_ids,
            borrowed=tuple(tuple(pids) for pids in borrowed_lists),
            # Cells are in curve order, so a shard's cells are one row range.
            row_cuts=np.searchsorted(shard_of_cell, np.arange(num_shards + 1)),
            cell_weights=tuple(int(w) for w in cell_weights),
            owned_weights=tuple(int(w) for w in owned_weights),
            borrowed_weights=tuple(
                int(total - owned)
                for total, owned in zip(cell_weights, owned_weights)
            ),
            owned_work=tuple(int(w) for w in owned_work),
            home_shards=home_shards,
        )

    def shard_for(self, leaf_ids: np.ndarray) -> np.ndarray:
        """The owning shard of each leaf cell id."""
        leaf_ids = np.asarray(leaf_ids, dtype=np.uint64)
        if self.boundaries.size == 0:
            return np.zeros(len(leaf_ids), dtype=np.int64)
        return np.searchsorted(self.boundaries, leaf_ids, side="right")


# ----------------------------------------------------------------------
# Worker-side: payloads, service construction, the process main loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TwoLayerShardPart:  #: spawn_payload
    """One layer's partition as a geometry + coverage plane pair.

    The geometry segment is SHARED: every shard of the layer names the
    same segment and maps the same pages (ring geometry, refinement
    buckets, polygon table — published exactly once).  The coverage
    segment is this shard's own: its covering subset, ACT store and
    lookup table.  The worker composes the two planes back into one
    serveable snapshot via
    :meth:`~repro.core.flat.FlatSnapshot.from_planes`.
    """

    geometry_shm: str  # the layer's single shared geometry-plane segment
    coverage_shm: str  # this shard's private coverage-plane segment
    version: int  # the parent snapshot's version


@dataclass
class _WorkerPayload:  #: spawn_payload
    """Everything one shard worker needs to build its JoinService."""

    shard: int
    parts: dict[str, _TwoLayerShardPart]  # layer name -> partition
    cache_cells: int
    adaptation: AdaptationPolicy | None
    obs: ObsConfig | None = None  # worker-side observability settings


def _index_from_part(
    part: _TwoLayerShardPart, *, fresh_version: bool
) -> PolygonIndex:
    """Attach the partition sub-index a part describes (no store build).

    Maps the layer's shared geometry segment plus this shard's coverage
    segment and composes them.  The attach keeps its ``SharedMemory``
    handles open for the index's whole lifetime (pinned as the snapshot
    owner) — closing one while numpy views into the buffers exist is an
    error, so the handles are simply dropped with the index.

    ``fresh_version=False`` stamps the parent snapshot's version (initial
    attach / add_layer: every shard of one snapshot agrees).
    ``fresh_version=True`` floors the local counter above the parent's
    version and stamps a fresh one (swap: the worker's current sub-index
    may carry a *later* local version from a shard-local adaptive
    retrain, and the router rightly refuses rollbacks).
    """
    if fresh_version:
        ensure_version_floor(part.version)
        version = None
    else:
        version = part.version
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


def _apply_admin(
    service: JoinService, msg: tuple, shard: int, build_seconds: float
) -> object:
    """Execute one message against a shard's JoinService.

    The one handler both backends run — the process worker loop wraps
    its outcome in ``("ok"|"err", ...)``, the inline client calls it
    directly — so the backends cannot diverge in behavior.

    ``join`` reads the shard's slice out of the dispatch's scatter
    buffer.  Its ``trace`` field is the front dispatch's ``(trace_id,
    parent_span_id)``, or ``None`` when the dispatch is untraced; a
    traced join opens a ``shard`` root under that remote parent — the
    shard service's own ``dispatch``/``probe``/``refine`` spans nest
    beneath it — and replies ``(result, finished_spans)`` so the records
    travel back for the front to adopt.  ``ping`` replies with the
    service construction time (``build_seconds``) and layer ops with
    their sub-index materialization time, so the front can meter attach
    latency.
    """
    op = msg[0]
    if op == "join":
        _, layer, shm_name, total, offset, count, exact, materialize, trace = msg
        lats, lngs, cells = _read_shm_batch(shm_name, total, offset, count)
        tracer = service.tracer
        root = (
            contextlib.nullcontext()
            if trace is None
            else tracer.remote_root("shard", trace, shard=shard)
        )
        with root:
            result = service.join(
                lats, lngs, layer=layer, exact=exact, materialize=materialize,
                cell_ids=cells,
            )
        return result if trace is None else (result, tracer.take_last_trace())
    if op == "ping":
        return {"build_seconds": build_seconds}
    if op == "stats":
        return service.stats()
    if op in ("swap", "add_layer"):
        _, name, part = msg
        with Timer() as timer:
            index = _index_from_part(part, fresh_version=op == "swap")
        if op == "swap":
            service.swap_layer(name, index)
        else:
            service.add_layer(name, index)
        return {"build_seconds": timer.seconds}
    raise ValueError(f"unknown shard op: {op!r}")


class _AttachedSegment(SharedMemory):
    """An attachment whose finalizer tolerates still-exported views.

    A worker pins its attach handles inside the index it serves; when the index is dropped (swap retirement, shutdown) the
    interpreter may finalize the handle *before* the numpy views into
    its buffer, and the stock destructor then raises — and prints — a
    ``BufferError``.  The mapping is released regardless once the last
    view goes away, so the error is pure shutdown noise; swallow it.
    An explicit, orderly ``close()`` (the batch-read path) is
    unaffected.
    """

    def __del__(self):
        with contextlib.suppress(BufferError):
            super().__del__()


def _attach_shm(name: str) -> SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    On 3.13+ ``track=False`` keeps the attachment out of the resource
    tracker (the segment's lifetime belongs to the front, which unlinks
    it after the gather).  Pre-3.13 the attach registers with the
    tracker unconditionally — harmless here, because spawned workers
    share the front's tracker process and its cache is a set: the
    duplicate registration collapses and the front's unlink clears it.
    Explicitly unregistering instead would corrupt that shared cache.
    """
    try:
        return _AttachedSegment(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        return _AttachedSegment(name=name)


def _read_shm_batch(
    shm_name: str, total: int, offset: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy one shard's slice out of a scatter buffer, then detach."""
    shm = _attach_shm(shm_name)
    try:
        window = slice(offset, offset + count)
        buf = shm.buf
        lats = np.frombuffer(buf, np.float64, count=total)[window].copy()
        lngs = np.frombuffer(buf, np.float64, count=total, offset=8 * total)[
            window
        ].copy()
        cells = np.frombuffer(buf, np.uint64, count=total, offset=16 * total)[
            window
        ].copy()
        del buf
    finally:
        shm.close()
    return lats, lngs, cells


def _shard_worker_main(conn, payload: _WorkerPayload) -> None:
    """Entry point of one shard worker process (spawn-safe: module level).

    Attaches the partition sub-indexes and builds the shard's
    JoinService, then answers control messages until ``close`` or the
    pipe drops.  Every reply is ``("ok", value)`` or ``("err",
    traceback_text)`` — a failed request never kills the worker, so one
    poisoned batch cannot take a shard (and every batch it would have
    served) down with it.  The ``ping`` reply carries the service
    construction time, so the front's spawn barrier doubles as the
    attach measurement the bench reports.
    """
    # A worker re-allocates the same ~0.5 MB of numpy temporaries on every
    # dispatch.  glibc hands a freed heap top above its trim threshold
    # back to the OS (128 KiB until the process has freed one mmapped
    # block), so unless an unrelated allocation happens to pin the top,
    # each dispatch faults those pages in again — measured on a 5.5 k-point
    # dispatch: 139 instead of 4 minor faults, +0.27 ms of system time,
    # flipping with any edit that moves the worker's heap.  Freeing one
    # 4 MiB block raises both dynamic thresholds for the process's life.
    np.empty(1 << 22, dtype=np.uint8)
    try:
        with Timer() as build_timer:
            service = _build_shard_service(payload)
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
                reply = (
                    "ok",
                    _apply_admin(
                        service, msg, payload.shard, build_timer.seconds
                    ),
                )
            except BaseException:
                reply = ("err", traceback.format_exc())
            conn.send(reply)
    finally:
        service.close()
        conn.close()


# ----------------------------------------------------------------------
# Front-side shard clients and scatter buffers
# ----------------------------------------------------------------------


class _ShmBatch:
    """One dispatch's scatter buffer: ``lats | lngs | leaf cell ids``.

    The permuted (shard-grouped) batch is written once into a shared
    memory segment; workers read only their slice.  Coordinates never
    enter a pickle stream.
    """

    def __init__(self, lats: np.ndarray, lngs: np.ndarray, cells: np.ndarray):
        total = len(lats)
        self.total = total
        self._shm = SharedMemory(create=True, size=max(1, 24 * total))
        buf = self._shm.buf
        np.frombuffer(buf, np.float64, count=total)[:] = lats
        np.frombuffer(buf, np.float64, count=total, offset=8 * total)[:] = lngs
        np.frombuffer(buf, np.uint64, count=total, offset=16 * total)[:] = cells
        del buf

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        self._shm.close()
        with contextlib.suppress(FileNotFoundError):  # pragma: no cover - double close
            self._shm.unlink()


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
            raise ShardWorkerError(
                self.shard, f"worker pipe closed: {exc}"
            ) from None

    def finish(self) -> object:
        try:
            kind, value = self._conn.recv()
        except (EOFError, OSError):
            raise ShardWorkerError(
                self.shard, "worker terminated unexpectedly"
            ) from None
        if kind == "err":
            raise ShardWorkerError(self.shard, value)
        return value

    def request(self, msg: tuple) -> object:
        self.start(msg)
        return self.finish()

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError, EOFError, OSError):
            self._conn.send(("close",))
            self._conn.recv()
        self._conn.close()
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=10)


class _InlineShard:
    """In-process shard client: same partitioning, no processes.

    The test backend (and a debugging aid): hosts the shard's
    JoinService in the calling process, so the shard-boundary
    equivalence properties can run thousands of examples without paying
    process spawns.  Messages go through :func:`_apply_admin` exactly as
    in a worker — a join reads its slice from the same shared-memory
    scatter buffer — and a failure re-raises the ORIGINAL exception from
    ``finish`` (no pipe to flatten it into a traceback string).
    """

    def __init__(self, payload: _WorkerPayload):
        self.shard = payload.shard
        with Timer() as build_timer:
            self._service = _build_shard_service(payload)
        self._build_seconds = build_timer.seconds
        self._pending: tuple[str, object] | None = None

    def start(self, msg: tuple) -> None:
        try:
            value = _apply_admin(
                self._service, msg, self.shard, self._build_seconds
            )
        except BaseException as exc:
            self._pending = ("err", exc)
        else:
            self._pending = ("ok", value)

    def finish(self) -> object:
        assert self._pending is not None, "finish() without a start()"
        kind, value = self._pending
        self._pending = None
        if kind == "err":
            raise value  # type: ignore[misc]
        return value

    def request(self, msg: tuple) -> object:
        self.start(msg)
        return self.finish()

    def close(self) -> None:
        self._service.close()


def _scatter_gather(
    sends: list[tuple["_ProcessShard | _InlineShard", tuple]],
) -> tuple[list[tuple[int, object]], list[BaseException]]:
    """Send every request, then drain every worker that received one.

    ``sends`` is a list of ``(client, message)`` pairs.  The drain
    discipline is the pipe-alignment invariant of the whole front: a
    worker that received a request MUST be drained even after another
    worker failed (and workers after a failed SEND must not be sent to),
    or a queued reply would be mistaken for the answer to a later
    request.  Returns ``(gathered, errors)``: ``gathered`` holds
    ``(slot, value)`` pairs for the sends that completed (slots index
    into ``sends``, in order), ``errors`` every send/finish failure in
    occurrence order.
    """
    sent: list[tuple[int, object]] = []
    errors: list[BaseException] = []
    for slot, (client, msg) in enumerate(sends):
        try:
            client.start(msg)
        except BaseException as exc:
            errors.append(exc)
            break
        sent.append((slot, client))
    gathered: list[tuple[int, object]] = []
    for slot, client in sent:
        try:
            gathered.append((slot, client.finish()))
        except BaseException as exc:
            errors.append(exc)
    return gathered, errors


# ----------------------------------------------------------------------
# The sharded service front
# ----------------------------------------------------------------------

#: Published geometry copies per distinct referenced polygon.  A layer's
#: geometry lives in exactly one shared segment however many coverage
#: planes reference a polygon
#: (:func:`~repro.core.flat.pack_coverage_plane` rejects geometry buffers
#: outright), so the measured factor is structurally 1.0 — unlike
#: :attr:`ShardPlan.replication_factor`, the membership-derived factor a
#: copy-the-straddlers publication would pay.
_GEOMETRY_REPLICATION = 1.0


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
        ``"process"`` (default) spawns one worker process per shard and
        ships batches through shared memory; ``"inline"`` hosts the
        shard services in-process (tests, debugging).
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
        shard workers run their own tracer; a traced front dispatch
        carries its ``(trace_id, span_id)`` context in the join message,
        the worker opens a ``shard`` root span under that parent, and
        the finished worker spans return over the pipe to be adopted
        into the front's ring — one end-to-end trace per dispatch.

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
        # The front's layer registry IS a LayerRouter: copy-on-write
        # snapshot reads, default-layer resolution, duplicate/rollback
        # validation — one implementation shared with JoinService.
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
        # Flat-snapshot segments owned by the front, per layer, for the
        # CURRENT generation; retired (and unlinked) on swap and close.
        # A layer's FIRST segment is its shared geometry plane, followed
        # by one coverage segment per shard.
        self._segments: dict[str, tuple[SharedMemory, ...]] = {}  #: guarded_by(_lock)
        # Published (geometry, per-shard) payload bytes per layer,
        # current generation.
        self._plane_bytes: dict[str, tuple[int, int]] = {}  #: guarded_by(_lock)
        # One lock serializes scatter/gather dispatches and admin fan-outs:
        # worker pipes are request/response channels and must never see
        # interleaved conversations.
        self._lock = threading.Lock()
        self._closed = False  #: guarded_by(_lock, writes)
        self._poisoned = False  #: guarded_by(_lock, writes)
        self._clients: list[_ProcessShard | _InlineShard] = []  #: guarded_by(_lock)
        self._spawn_seconds: tuple[float, ...] = ()
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
                # workers: forked children must inherit it (a worker
                # that lazily spawns its own tracker on shm attach would
                # warn about "leaked" segments the front rightly owns
                # and unlinks).  Spawned children receive the fd anyway.
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
                ctx = get_context(start_method)
                self._clients = [_ProcessShard(ctx, p) for p in payloads]
            # Barrier: surfaces attach errors; the replies carry each
            # worker's service construction time.
            reports = [client.request(("ping",)) for client in self._clients]
        except BaseException:
            # A mid-spawn failure must not leak the published segments:
            # the workers that did come up only hold attachments, and
            # the front owns every segment it created.
            for client in self._clients:
                client.close()
            self._release_segments(self._segments)
            self._segments = {}
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
                    num_owned=sum(
                        len(p.owned[payload.shard])
                        for p in self._plans.values()
                    ),
                    num_borrowed=sum(
                        len(p.borrowed[payload.shard])
                        for p in self._plans.values()
                    ),
                )
        self._start_batcher(max_batch, max_wait_ms)

    # ------------------------------------------------------------------
    # Layer routing
    # ------------------------------------------------------------------

    def plan(self, layer: str | None = None) -> ShardPlan:
        """The live shard plan of one layer."""
        with self._lock:
            name, _ = self._router.resolve(layer)
            return self._plans[name]

    @property
    def spawn_seconds(self) -> tuple[float, ...]:
        """Per-shard worker-side service construction time (the spawn
        barrier's ping replies): a zero-copy attach of the published
        planes."""
        return self._spawn_seconds

    # ------------------------------------------------------------------
    # Snapshot segment publication
    # ------------------------------------------------------------------

    def _publish_parts(
        self, plan: ShardPlan, index: PolygonIndex
    ) -> tuple[
        list[_TwoLayerShardPart], tuple[SharedMemory, ...], tuple[int, int]
    ]:
        """One part per shard, published as front-owned segments.

        Returns ``(parts, segments, (geometry_bytes, coverage_bytes))``
        — the payload split between the layer's single shared
        geometry-plane segment (which leads the tuple) and the per-shard
        coverage-plane segments.  The returned segments are the new
        generation's — the caller installs them into ``_segments`` only
        once the fan-out succeeded, and must release them itself on
        failure.
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
        """Published geometry copies per distinct polygon in one layer."""
        self._router.resolve(layer)  # unknown layers raise, as elsewhere
        return _GEOMETRY_REPLICATION

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
        cell_ids: np.ndarray,
        lats: np.ndarray,
        lngs: np.ndarray,
        exact: bool,
        materialize: bool,
    ) -> JoinResult:
        # Capture the dispatch root's context BEFORE opening child spans:
        # worker-side `shard` roots parent to the dispatch itself, as
        # siblings of the front's scatter/gather/merge phases.
        trace_ctx = self._tracer.context()
        with self._lock, Timer() as timer:
            # Resolve UNDER the dispatch lock (the caller's `index` is
            # only its routing check): index, plan, and the workers'
            # sub-indexes always belong to the same generation, even
            # when a swap_layer lands between that check and this
            # dispatch.
            _, index = self._router.resolve(name)
            plan = self._plans[name]
            with self._tracer.span("scatter", points=len(lats)) as span:
                shard_of = plan.shard_for(cell_ids)
                order = np.argsort(shard_of, kind="stable")
                per_shard = np.bincount(shard_of, minlength=plan.num_shards)
                offsets = np.zeros(plan.num_shards + 1, dtype=np.int64)
                np.cumsum(per_shard, out=offsets[1:])
                batch = _ShmBatch(lats[order], lngs[order], cell_ids[order])
                engaged = [
                    shard
                    for shard in range(plan.num_shards)
                    if per_shard[shard] > 0
                ]
                span.set(shards=len(engaged))
            try:
                with self._tracer.span("gather", shards=len(engaged)):
                    gathered, errors = _scatter_gather(
                        [
                            (
                                self._clients[shard],
                                ("join", name, batch.name, batch.total,
                                 int(offsets[shard]), int(per_shard[shard]),
                                 exact, materialize, trace_ctx),
                            )
                            for shard in engaged
                        ]
                    )
                if errors:
                    raise errors[0]
            finally:
                batch.close()
        parts: list[JoinResult] = []
        for _, part in gathered:
            if trace_ctx is not None:
                # A traced dispatch gets (result, worker_spans) back;
                # fold the workers' finished spans into the front's ring
                # so the whole cross-process trace reads from one place.
                part, worker_spans = part
                if worker_spans:
                    self._tracer.adopt(worker_spans)
            parts.append(part)
        with self._tracer.span("merge", shards=len(parts)):
            if materialize:
                # Shard-local pair indices -> positions in the batch.
                for (slot, _), part in zip(gathered, parts):
                    part.pair_points = order[
                        offsets[engaged[slot]] + part.pair_points
                    ]
            return merge_join_results(
                parts,
                num_points=len(lats),
                num_polygons=len(index.polygons),
                wall_seconds=timer.seconds,
                materialize=materialize,
            )

    # ------------------------------------------------------------------
    # Layer management (fans out per shard)
    # ------------------------------------------------------------------

    def swap_layer(self, name: str, index: PolygonIndex) -> PolygonIndex:
        """Atomically replace a layer with a newer snapshot on every shard.

        Re-plans the partition for the new snapshot and fans the swap
        out; each worker builds its new sub-index in parallel with the
        others.  The front's plan flips only after every shard swapped,
        so dispatches keep scattering by the plan that matches what the
        workers serve (the dispatch lock makes the fan-out atomic with
        respect to joins).
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

        All-or-nothing is required for layer management: if SOME shards
        applied the change and others did not, the workers disagree on
        the layer's partition and no front-side plan can match all of
        them — the service is poisoned (every later call raises) rather
        than silently serving mixed generations.  A failure on EVERY
        shard leaves the previous state intact everywhere, so the
        service stays usable.  Returns the per-shard reply values (the
        workers' sub-index materialization timings).
        """
        gathered, errors = _scatter_gather(list(zip(self._clients, messages)))
        if errors:
            if 0 < len(gathered) < len(self._clients):
                self._poisoned = True
            raise errors[0]
        return [value for _, value in gathered]

    # ------------------------------------------------------------------
    # Observability & lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Merged snapshot with per-shard detail in ``stats.shards``.

        Front-level latency covers whole scatter/gather dispatches;
        cache counters sum across shards per layer; each shard's own
        ``ServiceStats`` (including its adaptation state) rides along in
        ``shards``, with the shard's polygons split into owned vs
        borrowed classes (``sum(num_owned) over shards`` == the layer
        polygon counts — no double-counted straddlers), and
        ``stats.replication`` carries each layer's measured geometry
        replication factor.  Adaptation entries are keyed ``layer@shardN`` so the
        point-weighted ``live_sth_rate`` and ``retrains`` aggregates stay
        correct across the fan-out.
        """
        self._check_open()
        with self._lock:
            # Scatter the stats request to every worker before gathering,
            # so the per-shard snapshot work overlaps instead of paying N
            # sequential round-trips under the dispatch lock.
            gathered, errors = _scatter_gather(
                [(client, ("stats",)) for client in self._clients]
            )
            if errors:
                raise errors[0]
            shard_stats: list[ServiceStats] = [value for _, value in gathered]
            indexes = dict(self._router.items())
            plans = dict(self._plans)
            replication = dict.fromkeys(indexes, _GEOMETRY_REPLICATION)
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
            ShardStatus(
                shard=shard,
                num_owned=sum(
                    len(plan.owned[shard]) for plan in plans.values()
                ),
                num_borrowed=sum(
                    len(plan.borrowed[shard]) for plan in plans.values()
                ),
                stats=stats,
            )
            for shard, stats in enumerate(shard_stats)
        )
        return self._recorder.snapshot(
            cache, layers, adaptation, shards=shards, replication=replication
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")
        if self._poisoned:
            raise RuntimeError(
                "service is inconsistent: a layer swap/add failed on some "
                "shards after succeeding on others; close it and rebuild"
            )

    def close(self) -> None:
        """Drain pending lookups, stop every shard worker, reap processes.

        Unlinks every snapshot segment the front published — after the
        workers are down, so no attach can race the unlink (and even if
        one did, an attached mapping survives its unlink on POSIX).
        """
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
            for client in self._clients:
                client.close()
            self._release_segments(self._segments)
            self._segments = {}
            self._plane_bytes = {}
            self._set_snapshot_gauges(())
