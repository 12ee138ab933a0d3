"""The four workloads: inputs, set-up, the timed op and the step schedule.

A workload is a sequence of *passes*; a pass is a list of steps.  A step
is one call into the program's public API — a read (``join`` on one
batch of the point pool), an ``insert``, a ``delete`` or a ``compact`` —
issued by a single closed-loop client: the next step starts when the
previous one has returned.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from multiprocessing import resource_tracker

import numpy as np

from repro import DynamicPolygonIndex, JoinService, PolygonIndex
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.joins import JoinResult
from repro.datasets.workloads import (
    polygon_churn_workload,
    polygon_dataset,
    shard_probe_points,
    uniform_points_for,
    venue_points,
)
from repro.geo.polygon import Polygon
from repro.obs import Observability
from repro.serve.sharded import ShardedJoinService
from repro.util.timing import Timer

from e2ebench.inputs import border_points, fingerprint, polygon_fingerprint

READ, INSERT, DELETE, COMPACT = "read", "insert", "delete", "compact"


@dataclass(frozen=True)
class Step:
    kind: str
    batch: int = -1  # pool batch of a read
    payload: object = None  # the polygon of an insert, the id of a delete


@dataclass(frozen=True)
class Sizes:
    points_per_op: int
    pool_batches: int  # distinct read batches in the point pool
    ops_per_pass: int  # steps of the schedule's repeating unit
    setup_repeats: int  # set-ups per untraced run (median reported)


class Workload:
    """Base: a point pool, an index, an entry point, a step schedule."""

    name: str
    exact: bool
    #: The op's probe goes through a ``CachedCellStore`` in this process,
    #: so the replayed path probes the harness-built cached store.
    served: bool
    precision_meters: float | None = None
    full: Sizes
    smoke: Sizes

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.is_smoke = smoke
        self.sizes = self.smoke if smoke else self.full
        self.build_seconds = 0.0
        self.index: PolygonIndex | DynamicPolygonIndex | None = None
        self.service: JoinService | ShardedJoinService | None = None
        self.lats = self.lngs = np.zeros(0)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Inputs, index build, service construction, two warm-up ops."""
        self._generate()
        with Timer() as build_timer:
            self._build()
        self.build_seconds = build_timer.seconds
        self.build_timings = self.index.timings
        self._serve()
        for batch in range(2):
            self.join(*self.batch(batch))

    def _generate(self) -> None:
        raise NotImplementedError

    def _build(self) -> None:
        raise NotImplementedError

    def _serve(self) -> None:
        """Stand up whatever serves the index (nothing for offline)."""

    def close(self) -> None:
        """Release the service and its worker processes, if any is up."""
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- the op ---------------------------------------------------------

    def join(
        self, lats: np.ndarray, lngs: np.ndarray, materialize: bool = False
    ) -> JoinResult:
        raise NotImplementedError

    def apply(self, step: Step) -> None:
        raise NotImplementedError(f"{self.name} has no {step.kind} steps")

    def batch(self, number: int) -> tuple[np.ndarray, np.ndarray]:
        size = self.sizes.points_per_op
        lo = (number % self.sizes.pool_batches) * size
        return self.lats[lo : lo + size], self.lngs[lo : lo + size]

    # -- schedule -------------------------------------------------------

    @property
    def sweep_passes(self) -> int:
        """Passes that are always run, whatever the time budget: they
        visit every pool batch once, and the result fingerprint and the
        every-50th-read oracle checks are taken over them."""
        return self.sizes.pool_batches // self.sizes.ops_per_pass

    #: Writes change the polygon set under the reads.  Where they do
    #: not, later sweeps re-join the same batches against the same
    #: polygons, so their counts must equal the first sweep's.
    mutates_index = False

    def passes(self) -> Iterator[list[Step]]:
        per_pass = self.sizes.ops_per_pass
        for number in itertools.count():
            yield [
                Step(READ, batch=(number * per_pass + k) % self.sizes.pool_batches)
                for k in range(per_pass)
            ]

    # -- what the oracle and the fingerprints need -----------------------

    def live_polygons(self) -> list[Polygon | None]:
        return list(self.index.polygons)

    def input_fingerprints(self) -> dict[str, str]:
        return {
            "polygons": polygon_fingerprint(self._input_polygons()),
            "points": fingerprint([self.lats, self.lngs]),
        }

    def _input_polygons(self) -> list[Polygon]:
        return [p for p in self.index.polygons if p is not None]

    # -- traced-run hooks (only the sharded workload has a remote path) ---

    def begin_trace(self) -> None:
        """Before the first traced step."""

    def trace_read(self, log, lats, lngs, replay) -> None:
        """After a read's layered replay, inside the same step."""

    def end_trace(self, **measured: object) -> dict[str, float]:
        """Workload-specific per-layer metrics (and overrides)."""
        return dict.fromkeys(SHARDED_METRICS, 0.0)


#: Per-layer metrics that exist only where there is a shard front.
SHARDED_METRICS = (
    "serve.shard_route_s",
    "serve.spawn_s",
    "serve.replication_factor",
    "serve.geometry_plane_bytes",
    "serve.coverage_plane_bytes",
    "serve.shm_bytes_per_op",
    "serve.straggler_ratio",
    "serve.front_overhead_share",
    "serve.scatter_s",
    "serve.gather_s",
    "serve.merge_s",
    "serve.worker_probe_s",
    "serve.worker_refine_s",
    "serve.worker_cache_s",
    "obs.trace_overhead_share",
)

#: Bytes the front writes to shared memory per point of a batch:
#: latitude, longitude (float64) and leaf cell id (uint64).
SHM_BYTES_PER_POINT = 24


class OfflineBorderExact(Workload):
    """The paper's offline accurate join, no serve layer at all."""

    name = "offline_border_exact"
    exact = True
    served = False
    full = Sizes(8_192, 240, 80, setup_repeats=3)
    smoke = Sizes(4_096, 8, 4, setup_repeats=1)

    def _generate(self) -> None:
        self.polygons = polygon_dataset("boroughs")
        self.lats, self.lngs = border_points(
            self.polygons,
            self.sizes.pool_batches * self.sizes.points_per_op,
            self.seed,
        )

    def _build(self) -> None:
        self.index = PolygonIndex.build(self.polygons)

    def join(self, lats, lngs, materialize=False):
        return self.index.join(lats, lngs, exact=True, materialize=materialize)


class ServeUniformApprox(Workload):
    """A default ``JoinService`` fed a cache-hostile uniform stream."""

    name = "serve_uniform_approx"
    exact = False
    served = True
    precision_meters = 60.0
    full = Sizes(8_192, 240, 80, setup_repeats=1)
    smoke = Sizes(4_096, 8, 4, setup_repeats=1)

    def _generate(self) -> None:
        self.polygons = polygon_dataset(
            "neighborhoods", num_polygons=12 if self.is_smoke else None
        )
        self.lats, self.lngs = uniform_points_for(
            self.polygons,
            self.sizes.pool_batches * self.sizes.points_per_op,
            self.seed,
        )

    def _build(self) -> None:
        self.index = PolygonIndex.build(
            self.polygons, precision_meters=self.precision_meters
        )

    def _serve(self) -> None:
        self.service = JoinService(self.index)

    def join(self, lats, lngs, materialize=False):
        return self.service.join(lats, lngs, exact=False, materialize=materialize)


class ShardedHotspotExact(Workload):
    """Two shard worker processes behind a scatter/gather front."""

    name = "sharded_hotspot_exact"
    exact = True
    served = False  # the front probes nothing; the workers' caches are remote
    full = Sizes(8_192, 240, 80, setup_repeats=1)
    smoke = Sizes(4_096, 8, 4, setup_repeats=1)
    num_shards = 2

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.training_points = 4_096 if smoke else 100_000
        self.spawn_seconds = 0.0
        self.traced_service: ShardedJoinService | None = None

    def _generate(self) -> None:
        self.polygons = polygon_dataset(
            "neighborhoods", num_polygons=12 if self.is_smoke else None
        )
        lats, lngs = shard_probe_points(
            self.training_points
            + self.sizes.pool_batches * self.sizes.points_per_op,
            seed=self.seed,
        )
        # The index trains on the head of the stream; queries are the rest.
        self.training_cell_ids = cell_ids_from_lat_lng_arrays(
            lats[: self.training_points], lngs[: self.training_points]
        )
        self.lats = lats[self.training_points :]
        self.lngs = lngs[self.training_points :]

    def _build(self) -> None:
        self.index = PolygonIndex.build(
            self.polygons, training_cell_ids=self.training_cell_ids
        )

    def _serve(self) -> None:
        with Timer() as spawn_timer:
            self.service = ShardedJoinService(
                self.index, num_shards=self.num_shards
            )
        self.spawn_seconds = spawn_timer.seconds

    def serve_traced(self) -> Observability:
        """A second, identical service with the shipped span plane on."""
        obs = Observability(tracing=True)
        self.traced_service = ShardedJoinService(
            self.index, num_shards=self.num_shards, obs=obs
        )
        return obs

    def close(self) -> None:
        super().close()
        if self.traced_service is not None:
            self.traced_service.close()
            self.traced_service = None
        # The services started multiprocessing's resource-tracker helper;
        # with every segment released, stop it and wait for it too, so
        # no process of this run outlives it.  (Private API: the tracker
        # has no public shutdown; without it the helper exits on its own
        # a moment after this process does.)
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def join(self, lats, lngs, materialize=False):
        return self.service.join(lats, lngs, exact=True, materialize=materialize)

    # The remote path cannot be replayed from outside, so its budget
    # comes from two places: public accessors of the untraced service,
    # and the spans the program already ships, read off a second service
    # started with ``obs=Observability(tracing=True)``.

    def begin_trace(self) -> None:
        self._obs = self.serve_traced()
        for batch in range(2):  # same warm-up the untraced service had
            self.traced_service.join(*self.batch(batch), exact=True)
        self._before = self.service.stats()
        self._phases_before = self._phase_sums()
        self._traced_wall: list[tuple[int, float]] = []

    def _phase_sums(self) -> dict[str, float]:
        """Seconds per phase from the shipped ``serve_phase_seconds``
        histograms (front spans plus the adopted worker spans)."""
        return {
            metric.labels.get("phase"): metric.sum
            for metric in self._obs.metrics.collect()
            if metric.name == "serve_phase_seconds"
        }

    def trace_read(self, log, lats, lngs, replay) -> None:
        plan = self.service.plan()
        with log.span("serve.shard_route"):
            plan.shard_for(replay.cell_ids)
        with Timer() as timer:
            self.traced_service.join(lats, lngs, exact=True)
        self._traced_wall.append((log.step, timer.seconds))

    def end_trace(
        self, *, real_seconds, raw_real_seconds, cells_seconds, route_seconds,
        reads, factors,
    ) -> dict[str, float]:
        after = self.service.stats()
        shard_points = [
            now.stats.points - then.stats.points
            for now, then in zip(after.shards, self._before.shards)
        ]
        shard_busy = [
            now.stats.busy_seconds - then.stats.busy_seconds
            for now, then in zip(after.shards, self._before.shards)
        ]
        traced_raw = sum(seconds for _, seconds in self._traced_wall)
        traced = sum(seconds * factors[step] for step, seconds in self._traced_wall)
        scale = traced / traced_raw  # shipped spans are wall seconds
        phase = {
            name: (seconds - self._phases_before.get(name, 0.0)) * scale
            for name, seconds in self._phase_sums().items()
        }
        front = sum(phase.get(name, 0.0) for name in ("scatter", "gather", "merge"))
        self_seconds = traced - cells_seconds - front
        geometry_bytes, coverage_bytes = self.service.plane_bytes()
        overhead = traced / real_seconds - 1.0
        return {
            "serve.shard_route_s": route_seconds,
            "serve.spawn_s": self.spawn_seconds,
            "serve.replication_factor": self.service.replication_factor(),
            "serve.geometry_plane_bytes": float(geometry_bytes),
            "serve.coverage_plane_bytes": float(coverage_bytes),
            "serve.shm_bytes_per_op": float(
                SHM_BYTES_PER_POINT * self.sizes.points_per_op
            ),
            "serve.straggler_ratio": max(shard_points)
            / (sum(shard_points) / len(shard_points)),
            "serve.front_overhead_share": 1.0 - max(shard_busy) / raw_real_seconds,
            "serve.scatter_s": phase.get("scatter", 0.0),
            "serve.gather_s": phase.get("gather", 0.0),
            "serve.merge_s": phase.get("merge", 0.0),
            "serve.worker_probe_s": phase.get("probe", 0.0),
            "serve.worker_refine_s": phase.get("refine", 0.0),
            "serve.worker_cache_s": phase.get("cache_lookup", 0.0),
            "serve.dispatch_self_s": self_seconds,
            "serve.dispatch_self_us_per_op": self_seconds / reads * 1e6,
            "harness.unattributed_share": self_seconds / traced,
            "harness.trace_overhead_share": overhead,
            "obs.trace_overhead_share": overhead,
        }


class ChurnVenuesMixed(Workload):
    """Writes and compactions beside small cache-friendly reads.

    A round is ``ops_per_pass`` writes — inserts and deletes alternating,
    so every round does the same kinds of work on every seed and the
    live polygon count is the same at every compaction — each followed
    by ``reads_per_write`` reads, then one explicit ``compact()``.
    """

    name = "churn_venues_mixed"
    exact = True
    served = True
    mutates_index = True
    full = Sizes(4_096, 64, 8, setup_repeats=3)
    smoke = Sizes(4_096, 8, 2, setup_repeats=1)

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.reads_per_write = 4 if smoke else 30
        self.num_initial, self.num_inserts = (4, 4) if smoke else (16, 48)

    def _generate(self) -> None:
        # insert_fraction=1.0: the generator only supplies polygons (the
        # initial set and the insert payloads); which live polygon each
        # delete retires is drawn here, from the same seed.
        churn = polygon_churn_workload(
            num_initial=self.num_initial,
            num_ops=self.num_inserts,
            num_probe_points=1,  # its probe stream is unused; reads are venues
            insert_fraction=1.0,
            seed=self.seed,
        )
        self.initial = list(churn.initial)
        self.inserts = [op.polygon for op in churn.ops]
        rng = np.random.default_rng(self.seed)
        live = list(range(self.num_initial))
        self.writes: list[Step] = []
        for number, polygon in enumerate(self.inserts):
            self.writes.append(Step(INSERT, payload=polygon))
            live.append(self.num_initial + number)
            victim = live.pop(int(rng.integers(len(live))))
            self.writes.append(Step(DELETE, payload=victim))
        self.lats, self.lngs = venue_points(
            self.sizes.pool_batches * self.sizes.points_per_op, seed=self.seed
        )

    def _build(self) -> None:
        self.index = DynamicPolygonIndex.build(
            self.initial, compact_threshold=None
        )

    def _serve(self) -> None:
        self.service = JoinService(self.index)

    def join(self, lats, lngs, materialize=False):
        return self.service.join(lats, lngs, exact=True, materialize=materialize)

    def apply(self, step: Step) -> None:
        if step.kind == INSERT:
            self.index.insert(step.payload)
        elif step.kind == DELETE:
            self.index.delete(step.payload)
        elif step.kind == COMPACT:
            self.index.compact()
        else:
            super().apply(step)

    @property
    def sweep_passes(self) -> int:
        return 1

    def passes(self) -> Iterator[list[Step]]:
        """Rounds, until the mutation stream is used up."""
        per_round = self.sizes.ops_per_pass
        batch = 0
        for lo in range(0, len(self.writes), per_round):
            steps: list[Step] = []
            for write in self.writes[lo : lo + per_round]:
                steps.append(write)
                for _ in range(self.reads_per_write):
                    steps.append(Step(READ, batch=batch))
                    batch += 1
            steps.append(Step(COMPACT))
            yield steps

    def live_polygons(self) -> list[Polygon | None]:
        live = set(self.index.live_polygon_ids)
        return [
            polygon if pid in live else None
            for pid, polygon in enumerate(self.index.polygons)
        ]

    def _input_polygons(self) -> list[Polygon]:
        return self.initial + self.inserts


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        OfflineBorderExact,
        ServeUniformApprox,
        ShardedHotspotExact,
        ChurnVenuesMixed,
    )
}
