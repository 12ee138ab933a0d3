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

The bundle itself never crosses a process boundary: a shard worker
builds its own ``Observability(tracing=...)``, tracing exactly when the
front does (:mod:`repro.serve.sharded`).
"""

from __future__ import annotations

from repro.obs.export import EventLog, render_prometheus, stats_json
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    DispatchMeters,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer, format_trace

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "DispatchMeters",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "Observability",
    "SpanRecord",
    "Tracer",
    "format_trace",
    "render_prometheus",
    "stats_json",
]


class Observability:
    """Tracer + metrics registry + event log, wired together.

    Parameters
    ----------
    tracing:
        Master switch for span recording; metrics and events stay active
        either way (they are far cheaper than spans).
    sample_rate:
        Fraction of dispatches traced (decided once at the root span).
    slow_trace_ms:
        Dispatches at least this slow emit a ``slow_dispatch`` event
        carrying the full trace verbatim (``None`` disables exemplars).
    event_path:
        Also append every event, as one JSON line, to this file.

    Each bundle gets its own registry, event log and tracer (the
    :class:`~repro.obs.trace.Tracer` and :class:`EventLog` defaults size
    them), so tests and co-hosted services stay isolated.
    """

    def __init__(
        self,
        *,
        tracing: bool = True,
        sample_rate: float = 1.0,
        slow_trace_ms: float | None = None,
        event_path=None,
    ):
        self.metrics = MetricsRegistry()
        self.events = EventLog(path=event_path)
        self.slow_trace_ms = slow_trace_ms
        self.tracer = Tracer(
            enabled=tracing,
            sample_rate=sample_rate,
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

    def prometheus(self, stats=None) -> str:
        """Prometheus text exposition of this bundle's registry."""
        return render_prometheus(self.metrics, stats=stats)

    def close(self) -> None:
        self.events.close()
