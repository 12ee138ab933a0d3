"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

The registry is deliberately tiny — a thread-safe, insertion-ordered map
from ``(name, labels)`` to an instrument, with get-or-create accessors so
instrumented code never checks for prior registration.  Instruments are
Prometheus-shaped (``kind`` + ``samples()``) so the text exporter in
:mod:`repro.obs.export` can render any registry without knowing the
instrument types.  Every :class:`~repro.obs.Observability` bundle
builds its own registry, so co-hosted services and tests stay isolated.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "DispatchMeters",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Log-spaced seconds buckets covering 10 µs .. 10 s — wide enough for a
#: single cache-hit probe through a full sharded scatter/gather.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


class _Instrument:
    """Shared name/help/labels plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, *, help: str = "", labels=None):
        self.name = _check_name(name)
        self.help = " ".join(str(help).split())  # exporter emits one line
        self.labels = dict(labels or {})
        self._lock = threading.Lock()

    def samples(self):
        """``(suffix, extra_labels, value)`` tuples for the exporter."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, *, help: str = "", labels=None):
        super().__init__(name, help=help, labels=labels)
        self._value = 0  #: guarded_by(_lock)

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def samples(self):
        return [("", {}, self.value)]


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, live versions)."""

    kind = "gauge"

    def __init__(self, name: str, *, help: str = "", labels=None):
        super().__init__(name, help=help, labels=labels)
        self._value = 0.0  #: guarded_by(_lock)

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def samples(self):
        return [("", {}, self.value)]


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``buckets`` are inclusive upper bounds (``le``); observations above
    the last bound land in the implicit ``+Inf`` overflow bucket.
    :meth:`percentile` interpolates within the winning bucket, which is
    exact enough for the p50/p99 breakdown tables the bench prints.
    """

    kind = "histogram"

    def __init__(self, name: str, *, help: str = "", labels=None,
                 buckets=DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help=help, labels=labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])) or not all(
            math.isfinite(b) for b in bounds
        ):
            raise ValueError(f"bucket bounds must be finite and increasing: {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +Inf overflow #: guarded_by(_lock)
        self._sum = 0.0  #: guarded_by(_lock)
        self._count = 0  #: guarded_by(_lock)

    def observe(self, value: int | float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) via interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = (q / 100.0) * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.bounds[-1]
                )
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            cumulative += count
        return self.bounds[-1]

    def samples(self):
        with self._lock:
            counts = list(self._counts)
            total = self._count
            value_sum = self._sum
        out = []
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            out.append(("_bucket", {"le": _format_bound(bound)}, cumulative))
        out.append(("_bucket", {"le": "+Inf"}, total))
        out.append(("_sum", {}, value_sum))
        out.append(("_count", {}, total))
        return out


def _format_bound(bound: float) -> str:
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Thread-safe, get-or-create instrument registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, _Instrument] = {}  #: guarded_by(_lock)

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **kwargs)
                self._metrics[key] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", labels=None,
                  buckets=DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def collect(self) -> list[_Instrument]:
        """Registered instruments in registration order."""
        with self._lock:
            return list(self._metrics.values())

    def value(self, name: str, labels=None):
        """Convenience lookup: the instrument's value, or ``None``."""
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
        if metric is None:
            return None
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value


class DispatchMeters:
    """Pre-resolved serve-path instruments, fed once per dispatch.

    Resolving instruments at construction keeps the per-dispatch cost at
    a handful of lock-protected integer adds; ``observe`` duck-types on
    :class:`~repro.core.joins.JoinResult`.
    """

    def __init__(self, registry: MetricsRegistry, labels=None):
        self.dispatches = registry.counter(
            "serve_dispatches_total", "completed join dispatches", labels)
        self.points = registry.counter(
            "serve_points_total", "points joined", labels)
        self.pairs = registry.counter(
            "serve_pairs_total", "result pairs produced", labels)
        self.true_hit_pairs = registry.counter(
            "serve_true_hit_pairs_total",
            "pairs settled by true-hit cells (no PIP test)", labels)
        self.candidate_pairs = registry.counter(
            "serve_candidate_pairs_total",
            "candidate pairs sent to refinement", labels)
        self.pip_tests = registry.counter(
            "serve_pip_tests_total", "point-in-polygon tests executed", labels)
        self.solely_true_hits = registry.counter(
            "serve_solely_true_hits_total",
            "points settled without any refinement", labels)
        self.seconds = registry.histogram(
            "serve_dispatch_seconds", "whole-dispatch wall latency", labels)

    def observe(self, result, seconds: float) -> None:
        self.dispatches.inc()
        self.points.inc(int(result.num_points))
        self.pairs.inc(int(result.num_pairs))
        self.true_hit_pairs.inc(int(result.num_true_hit_pairs))
        self.candidate_pairs.inc(int(result.num_candidate_pairs))
        self.pip_tests.inc(int(result.num_pip_tests))
        self.solely_true_hits.inc(int(result.solely_true_hits))
        self.seconds.observe(seconds)
