"""``repro.obs`` — the telemetry plane for the serving stack.

One :class:`Observability` bundle wires three pieces together and is
handed to :class:`~repro.serve.service.JoinService` /
:class:`~repro.serve.sharded.ShardedJoinService` at construction:

* a phase :class:`~repro.obs.trace.Tracer` (nested dispatch spans in
  per-thread ring buffers, sampled at the root, propagated across the
  shard-worker process boundary),
* a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms; per-phase latency arrives automatically from
  the tracer),
* an :class:`~repro.obs.export.EventLog` (swaps, retrains, compactions,
  shard spawns, slow-dispatch exemplars), with
  :func:`~repro.obs.export.render_prometheus` /
  :func:`~repro.obs.export.stats_json` for scraping.

The bundle itself never crosses a process boundary; :meth:`config`
produces a small picklable :class:`ObsConfig` that shard workers rebuild
their own bundle from via :meth:`Observability.from_config`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import EventLog, render_prometheus, stats_json
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_REGISTRY,
    Counter,
    DispatchMeters,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer, format_trace

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_REGISTRY",
    "Counter",
    "DispatchMeters",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "ObsConfig",
    "Observability",
    "SpanRecord",
    "Tracer",
    "format_trace",
    "render_prometheus",
    "stats_json",
]


@dataclass(frozen=True)
class ObsConfig:
    """Picklable observability settings (ships inside shard payloads)."""

    tracing: bool = True
    sample_rate: float = 1.0
    ring_size: int = 4096
    slow_trace_ms: float | None = None
    event_capacity: int = 1024


class Observability:
    """Tracer + metrics registry + event log, wired together.

    Parameters
    ----------
    tracing:
        Master switch for span recording; metrics and events stay active
        either way (they are far cheaper than spans).
    sample_rate:
        Fraction of dispatches traced (decided once at the root span).
    ring_size:
        Finished spans retained per recording thread.
    slow_trace_ms:
        Dispatches at least this slow emit a ``slow_dispatch`` event
        carrying the full trace verbatim (``None`` disables exemplars).
    registry:
        Share an existing registry (e.g. :data:`DEFAULT_REGISTRY` for
        process-wide metrics); by default each bundle gets its own, so
        tests and co-hosted services stay isolated.
    events / event_capacity / event_path:
        Share an existing :class:`EventLog`, or size/persist a new one.
    """

    def __init__(
        self,
        *,
        tracing: bool = True,
        sample_rate: float = 1.0,
        ring_size: int = 4096,
        slow_trace_ms: float | None = None,
        registry: MetricsRegistry | None = None,
        events: EventLog | None = None,
        event_capacity: int = 1024,
        event_path=None,
    ):
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.events = (
            events
            if events is not None
            else EventLog(capacity=event_capacity, path=event_path)
        )
        self.slow_trace_ms = slow_trace_ms
        self.tracer = Tracer(
            enabled=tracing,
            sample_rate=sample_rate,
            ring_size=ring_size,
            slow_threshold=(
                None if slow_trace_ms is None else slow_trace_ms / 1e3
            ),
            on_slow=self._on_slow_dispatch,
            metrics=self.metrics,
        )

    def _on_slow_dispatch(self, records) -> None:
        root = records[-1]  # the root span finishes (and appends) last
        self.events.emit(
            "slow_dispatch",
            name=root.name,
            seconds=root.seconds,
            trace=[record.to_dict() for record in records],
        )

    def prometheus(self, stats=None, prefix: str = "repro") -> str:
        """Prometheus text exposition of this bundle's registry."""
        return render_prometheus(self.metrics, stats=stats, prefix=prefix)

    def config(self) -> ObsConfig:
        """Settings a shard worker rebuilds its own bundle from.

        Worker-side ``sample_rate`` is pinned to 1.0: the front decides
        sampling once per dispatch, and workers only open spans for
        dispatches the front chose to trace.
        """
        return ObsConfig(
            tracing=self.tracer.enabled,
            sample_rate=1.0,
            ring_size=self.tracer.ring_size,
            slow_trace_ms=None,  # exemplars are judged at the front
            event_capacity=self.events._events.maxlen or 1024,
        )

    @classmethod
    def from_config(cls, config: ObsConfig | None) -> "Observability | None":
        if config is None:
            return None
        return cls(
            tracing=config.tracing,
            sample_rate=config.sample_rate,
            ring_size=config.ring_size,
            slow_trace_ms=config.slow_trace_ms,
            event_capacity=config.event_capacity,
        )

    def close(self) -> None:
        self.events.close()
