"""Exporters: Prometheus text format and a JSON-lines event log.

:func:`render_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
(and, optionally, a :class:`~repro.serve.stats.ServiceStats` snapshot as
gauges) in the Prometheus text exposition format — one sample per line,
``# HELP`` / ``# TYPE`` headers per family, escaped label values,
cumulative histogram buckets.  :class:`EventLog` is a bounded in-memory
ring of structured events (swaps, retrains, compactions, shard spawns,
slow-dispatch exemplars) with optional append-to-file JSONL persistence.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

__all__ = ["EventLog", "render_prometheus", "stats_json"]


def _escape_label_value(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE once per family."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._seen: set[str] = set()

    def sample(self, family: str, kind: str, help_text: str,
               labels: dict, value: object, suffix: str = "") -> None:
        if family not in self._seen:
            self._seen.add(family)
            self.lines.append(f"# HELP {family} {help_text or family}")
            self.lines.append(f"# TYPE {family} {kind}")
        self.lines.append(
            f"{family}{suffix}{_format_labels(labels)} {_format_value(value)}"
        )


def render_prometheus(registry=None, stats=None, prefix: str = "repro") -> str:
    """Render registry metrics (and optionally ServiceStats gauges).

    Parameters
    ----------
    registry:
        A :class:`~repro.obs.metrics.MetricsRegistry`; every registered
        counter/gauge/histogram is rendered.
    stats:
        A :class:`~repro.serve.stats.ServiceStats` (or its ``to_dict()``
        output): service totals, per-layer cache and lifecycle state, and
        per-layer adaptation state become ``<prefix>_service_*`` gauges.
    prefix:
        Metric-name prefix (no trailing underscore), "" to disable.
    """
    out = _Lines()
    head = f"{prefix}_" if prefix else ""
    if registry is not None:
        for metric in registry.collect():
            family = f"{head}{metric.name}"
            for suffix, extra, value in metric.samples():
                labels = dict(metric.labels)
                labels.update(extra)
                out.sample(family, metric.kind, metric.help, labels, value,
                           suffix=suffix)
    if stats is not None:
        _render_stats(out, stats, head)
    return "\n".join(out.lines) + "\n" if out.lines else ""


_SERVICE_SCALARS = (
    ("requests", "client-visible operations served"),
    ("points", "points joined in total"),
    ("pairs", "join pairs emitted in total"),
    ("dispatches", "vectorized joins executed"),
    ("busy_seconds", "summed time inside join dispatches"),
    ("wall_seconds", "service start to snapshot"),
    ("mean_ms", "mean dispatch latency over the window"),
    ("p50_ms", "median dispatch latency over the window"),
    ("p99_ms", "p99 dispatch latency over the window"),
    ("throughput_pps", "points per busy second"),
    ("throughput_wall_pps", "points per wall-clock second"),
    ("latency_window", "configured percentile window capacity"),
    ("window_samples", "dispatches currently in the window"),
    ("mean_batch_size", "points per dispatch"),
    ("cache_hit_rate", "point-weighted hot-cell cache hit rate"),
    ("live_sth_rate", "windowed solely-true-hit rate"),
    ("retrains", "completed adaptation retrains"),
)

_CACHE_FIELDS = ("capacity", "size", "hits", "misses", "evictions", "bypassed")
_LAYER_FIELDS = ("version", "delta_size", "num_polygons", "compactions")
_ADAPTATION_FIELDS = (
    "window_points", "window_sth_rate", "tracked_keys", "retrains_started",
    "retrains_completed", "retrains_failed", "retraining",
    "last_trained_version",
)


def _render_stats(out: _Lines, stats, head: str) -> None:
    data = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
    for name, help_text in _SERVICE_SCALARS:
        if name in data:
            out.sample(f"{head}service_{name}", "gauge", help_text, {},
                       data[name])
    for layer, cache in data.get("cache", {}).items():
        for name in _CACHE_FIELDS:
            out.sample(f"{head}service_cache_{name}", "gauge",
                       f"hot-cell cache {name}", {"layer": layer},
                       cache[name])
    for layer, status in data.get("layers", {}).items():
        for name in _LAYER_FIELDS:
            if name in status:
                out.sample(f"{head}service_layer_{name}", "gauge",
                           f"layer {name}", {"layer": layer}, status[name])
    for layer, status in data.get("adaptation", {}).items():
        for name in _ADAPTATION_FIELDS:
            if name in status:
                out.sample(f"{head}service_adaptation_{name}", "gauge",
                           f"adaptation {name}", {"layer": layer},
                           status[name])
    shards = data.get("shards", ())
    out.sample(f"{head}service_shards", "gauge", "attached shard workers",
               {}, len(shards))
    for shard in shards:
        out.sample(f"{head}service_shard_points", "gauge",
                   "points joined by shard",
                   {"shard": shard["shard"]}, shard["stats"]["points"])
        out.sample(f"{head}service_shard_p99_ms", "gauge",
                   "shard p99 dispatch latency",
                   {"shard": shard["shard"]}, shard["stats"]["p99_ms"])


def stats_json(stats) -> str:
    """One-line JSON rendering of a ServiceStats snapshot."""
    data = stats.to_dict() if hasattr(stats, "to_dict") else stats
    return json.dumps(data, sort_keys=True, default=str)


class EventLog:
    """Bounded ring of structured events, optionally persisted as JSONL.

    Every event is a plain dict ``{"ts": <unix seconds>, "kind": <str>,
    **fields}``.  With ``path`` set, each event is also appended to the
    file as one JSON line at emit time (line-buffered, so tail -f works).
    """

    def __init__(self, capacity: int = 1024, path=None):
        if capacity < 1:
            raise ValueError(f"event capacity must be >= 1, got {capacity}")
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._path = str(path) if path is not None else None
        self._file = None

    def emit(self, kind: str, **fields) -> dict:
        event = {"ts": time.time(), "kind": str(kind), **fields}
        line = json.dumps(event, default=str)
        with self._lock:
            self._events.append(event)
            if self._path is not None:
                if self._file is None:
                    self._file = open(self._path, "a", buffering=1)
                self._file.write(line + "\n")
        return event

    def events(self, kind: str | None = None) -> list[dict]:
        """Retained events, oldest first, optionally filtered by kind."""
        with self._lock:
            events = list(self._events)
        if kind is None:
            return events
        return [event for event in events if event["kind"] == kind]

    def to_jsonl(self) -> str:
        """Retained events as JSON lines (trailing newline when any)."""
        events = self.events()
        if not events:
            return ""
        return "\n".join(json.dumps(e, default=str) for e in events) + "\n"

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
