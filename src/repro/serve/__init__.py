"""Online serving layer: request streams over the offline join kernel.

The ``repro.serve`` subsystem wraps the core index into a service whose
unit of work is a *request stream* rather than a point array:

* :class:`JoinService` — the facade: single lookups, point batches, and
  multi-layer fan-out, all dispatched through the vectorized join drivers
  (the request surface itself lives in its base,
  :class:`~repro.serve.service.ServiceFront`, which
  :class:`ShardedJoinService` shares);
* :class:`MicroBatcher` — coalesces concurrent single-point lookups into
  micro-batches (the serving analog of the paper's batched probe phase);
* :class:`HotCellCache` — a numpy hash table keyed by a point's exact
  coordinates (their ``float64`` bit patterns) holding the point's leaf
  cell id and tagged entry (two slot choices per key, the less recently
  used one is replaced); :class:`JoinService` resolves every batch through
  it before the cell-id kernel, so a repeated point of a skewed
  (fig9-style, check-in) stream skips the projection, the Hilbert walk
  and the trie probe.  :class:`CachedCellStore` is the older cell-keyed
  wrapper around the same table, kept for the benchmark's replay;
* :class:`LayerRouter` — several named polygon layers behind one service;
* :class:`MorselExecutor` — persistent-pool morsel parallelism for large
  batches (defined in :mod:`repro.core.morsels`: the offline
  thread-parallel join runs on the same driver);
* :class:`ShardedJoinService` / :class:`ShardPlan` — share-nothing
  multi-process sharding by position: one worker process (and one
  ``JoinService``) per positional share of every batch slice, batches
  scattered through shared memory and merged bit-identically;
* :class:`ServiceStats` — p50/p99 latency, throughput, cache hit-rate,
  adaptation-loop snapshots, and per-shard detail;
* adaptation — pass an :class:`~repro.core.adaptive.AdaptationPolicy` to
  :class:`JoinService` and layers retrain themselves on observed traffic
  when their windowed solely-true-hit rate drifts below target.

Quickstart::

    from repro import JoinService, PolygonIndex

    service = JoinService(PolygonIndex.build(zones, precision_meters=4.0))
    zone_ids = service.lookup(40.72, -74.0)
"""

from repro.core.adaptive import (
    AdaptationPolicy,
    AdaptationStatus,
    AdaptiveController,
)
from repro.serve.batching import LookupRequest, MicroBatcher
from repro.serve.cache import CachedCellStore, CacheStats, HotCellCache
from repro.core.morsels import MorselExecutor
from repro.serve.router import JoinableIndex, LayerRouter
from repro.serve.service import JoinService
from repro.serve.sharded import ShardedJoinService, ShardPlan, ShardWorkerError
from repro.serve.stats import (
    LatencyRecorder,
    LayerStatus,
    ServiceStats,
    ShardStatus,
)

__all__ = [
    "AdaptationPolicy",
    "AdaptationStatus",
    "AdaptiveController",
    "CachedCellStore",
    "CacheStats",
    "HotCellCache",
    "JoinableIndex",
    "JoinService",
    "LatencyRecorder",
    "LayerRouter",
    "LayerStatus",
    "LookupRequest",
    "MicroBatcher",
    "MorselExecutor",
    "ServiceStats",
    "ShardPlan",
    "ShardStatus",
    "ShardWorkerError",
    "ShardedJoinService",
]
