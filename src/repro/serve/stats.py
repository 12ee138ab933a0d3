"""Service-side observability: latency percentiles and throughput.

A :class:`LatencyRecorder` keeps a bounded window of per-dispatch
latencies (a dispatch is one vectorized join — a coalesced micro-batch or
an explicit batch call) plus monotonically growing totals, and snapshots
them into an immutable :class:`ServiceStats`.  Percentiles are over the
window (recent behavior), totals and throughput over the service
lifetime, mirroring how production serving dashboards separate the two.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.adaptive import AdaptationStatus
from repro.serve.cache import CacheStats


@dataclass(frozen=True)
class LayerStatus:
    """Lifecycle state of one served layer at snapshot time."""

    version: int  # live snapshot version requests resolve to
    delta_size: int  # pending delta ops (0 for immutable indexes)
    num_polygons: int  # live polygons (holes excluded)
    compactions: int = 0  # delta merges completed (dynamic indexes only)


@dataclass(frozen=True)
class ShardStatus:
    """One shard of a :class:`~repro.serve.sharded.ShardedJoinService`.

    ``stats`` is the shard worker's own full :class:`ServiceStats`
    snapshot — per-shard latency, cache, layer, and adaptation detail —
    while the merged front-level ``ServiceStats`` aggregates across
    shards.  Polygon counts report the shard plan's two classes
    separately so the aggregation never double-counts a straddler:
    summing ``num_owned`` across shards reproduces the layers' true
    polygon counts, and ``num_borrowed`` is the straddler traffic this
    shard serves for polygons homed elsewhere.
    """

    shard: int  # shard index in [0, num_shards)
    num_owned: int  # polygons homed in this shard (all layers)
    num_borrowed: int  # straddlers referenced here, homed elsewhere
    stats: "ServiceStats"  # the shard's own service snapshot

    @property
    def num_polygons(self) -> int:
        """Polygon-table slots this shard references (owned + borrowed)."""
        return self.num_owned + self.num_borrowed


@dataclass(frozen=True)
class ServiceStats:
    """One immutable snapshot of a running :class:`JoinService`."""

    requests: int  # client-visible operations (lookups + batch joins)
    points: int  # points joined in total (a layer fan-out counts per layer)
    pairs: int  # join pairs emitted in total
    dispatches: int  # vectorized joins executed
    busy_seconds: float  # time spent inside join dispatches
    mean_ms: float  # over the latency window
    p50_ms: float
    p99_ms: float
    throughput_pps: float  # points per busy second, lifetime
    wall_seconds: float  # service start -> snapshot (monotonic)
    throughput_wall_pps: float  # points per wall-clock second, lifetime
    latency_window: int  # configured percentile window capacity
    window_samples: int  # dispatches currently held in the window
    cache: dict[str, CacheStats] = field(default_factory=dict)
    layers: dict[str, LayerStatus] = field(default_factory=dict)
    adaptation: dict[str, AdaptationStatus] = field(default_factory=dict)
    shards: tuple[ShardStatus, ...] = ()  # per-shard detail (sharded serve)
    # Measured geometry replication factor per layer (sharded serve):
    # polygon-geometry copies published per distinct referenced polygon.
    replication: dict[str, float] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        if self.dispatches == 0:
            return 0.0
        return self.points / self.dispatches

    @property
    def cache_hit_rate(self) -> float:
        """Point-weighted hit rate aggregated across all layer caches."""
        hits = sum(s.hits for s in self.cache.values())
        requests = sum(s.requests for s in self.cache.values())
        if requests == 0:
            return 0.0
        return hits / requests

    @property
    def live_sth_rate(self) -> float:
        """Point-weighted windowed solely-true-hit rate across layers.

        The live analog of the paper's Table 7 metric: the fraction of
        recently probed points that skipped the refinement phase.  ``1.0``
        when adaptation telemetry is off or no points are in any window.
        """
        points = sum(s.window_points for s in self.adaptation.values())
        if points == 0:
            return 1.0
        weighted = sum(
            s.window_sth_rate * s.window_points
            for s in self.adaptation.values()
        )
        return weighted / points

    @property
    def retrains(self) -> int:
        """Completed adaptation retrains across all layers."""
        return sum(s.retrains_completed for s in self.adaptation.values())

    def to_dict(self) -> dict:
        """JSON-safe nested dict: scalars, derived rates, sub-statuses.

        Recurses into cache/layer/adaptation/shard sub-statuses so
        ``json.dumps(stats.to_dict())`` round-trips without a custom
        encoder; the JSON exporter and bench result printing both build
        on this.
        """
        return {
            "requests": int(self.requests),
            "points": int(self.points),
            "pairs": int(self.pairs),
            "dispatches": int(self.dispatches),
            "busy_seconds": float(self.busy_seconds),
            "mean_ms": float(self.mean_ms),
            "p50_ms": float(self.p50_ms),
            "p99_ms": float(self.p99_ms),
            "throughput_pps": float(self.throughput_pps),
            "wall_seconds": float(self.wall_seconds),
            "throughput_wall_pps": float(self.throughput_wall_pps),
            "latency_window": int(self.latency_window),
            "window_samples": int(self.window_samples),
            "mean_batch_size": float(self.mean_batch_size),
            "cache_hit_rate": float(self.cache_hit_rate),
            "live_sth_rate": float(self.live_sth_rate),
            "retrains": int(self.retrains),
            "cache": {
                name: {
                    "capacity": int(stats.capacity),
                    "size": int(stats.size),
                    "hits": int(stats.hits),
                    "misses": int(stats.misses),
                    "evictions": int(stats.evictions),
                    "bypassed": int(stats.bypassed),
                    "requests": int(stats.requests),
                    "hit_rate": float(stats.hit_rate),
                }
                for name, stats in self.cache.items()
            },
            "layers": {
                name: asdict(status) for name, status in self.layers.items()
            },
            "adaptation": {
                name: asdict(status)
                for name, status in self.adaptation.items()
            },
            "shards": [
                {
                    "shard": int(status.shard),
                    "num_polygons": int(status.num_polygons),
                    "num_owned": int(status.num_owned),
                    "num_borrowed": int(status.num_borrowed),
                    "stats": status.stats.to_dict(),
                }
                for status in self.shards
            ],
            "replication": {
                name: float(factor)
                for name, factor in self.replication.items()
            },
        }


class LatencyRecorder:
    """Thread-safe dispatch recorder behind :class:`ServiceStats`."""

    def __init__(self, window: int = 8192):
        if window < 1:
            raise ValueError(f"latency window must be >= 1, got {window}")
        self._samples: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests = 0
        self._points = 0
        self._pairs = 0
        self._dispatches = 0
        self._busy_seconds = 0.0

    @property
    def window(self) -> int:
        """Configured window capacity (dispatches held for percentiles)."""
        return self._samples.maxlen or 0

    def record(
        self, *, requests: int, points: int, pairs: int, seconds: float
    ) -> None:
        """Record one dispatch covering ``requests`` client operations."""
        with self._lock:
            self._samples.append(seconds)
            self._requests += requests
            self._points += points
            self._pairs += pairs
            self._dispatches += 1
            self._busy_seconds += seconds

    def snapshot(
        self,
        cache: dict[str, CacheStats] | None = None,
        layers: dict[str, LayerStatus] | None = None,
        adaptation: dict[str, AdaptationStatus] | None = None,
        shards: tuple[ShardStatus, ...] = (),
        replication: dict[str, float] | None = None,
    ) -> ServiceStats:
        # Only the (cheap, C-level) deque copy happens under the lock;
        # the ndarray conversion and percentile scans run outside it, so
        # a snapshot never stalls concurrent record() calls on the hot
        # dispatch path while numpy crunches an 8192-sample window.
        with self._lock:
            window = list(self._samples)
            requests = self._requests
            points = self._points
            pairs = self._pairs
            dispatches = self._dispatches
            busy = self._busy_seconds
        samples = np.asarray(window, dtype=np.float64)
        if samples.size:
            mean_ms = float(samples.mean() * 1e3)
            p50_ms = float(np.percentile(samples, 50) * 1e3)
            p99_ms = float(np.percentile(samples, 99) * 1e3)
        else:
            mean_ms = p50_ms = p99_ms = 0.0
        # Busy-seconds throughput sums per-dispatch durations, so with
        # concurrent dispatch the denominator double-counts overlapped
        # wall time; wall throughput (start -> snapshot) is the honest
        # rate a load generator observes.
        throughput = points / busy if busy > 0 else 0.0
        wall = time.monotonic() - self._started
        throughput_wall = points / wall if wall > 0 else 0.0
        return ServiceStats(
            requests=requests,
            points=points,
            pairs=pairs,
            dispatches=dispatches,
            busy_seconds=busy,
            mean_ms=mean_ms,
            p50_ms=p50_ms,
            p99_ms=p99_ms,
            throughput_pps=throughput,
            wall_seconds=wall,
            throughput_wall_pps=throughput_wall,
            latency_window=self.window,
            window_samples=len(window),
            cache=dict(cache or {}),
            layers=dict(layers or {}),
            adaptation=dict(adaptation or {}),
            shards=tuple(shards),
            replication=dict(replication or {}),
        )
