"""Phase-level tracing for the serving hot path.

A :class:`Tracer` records *spans* — named, nested timing intervals — into
bounded per-thread ring buffers.  One serve dispatch produces one trace:
a root ``dispatch`` span with children for each phase the request passed
through (``cache_lookup``, ``probe``, ``refine``, ``merge``, ``scatter``,
``gather``, ``shard`` and a lane's ``cell_ids``).  The design goals, in order:

1. **Near-zero cost when disabled.**  Every entry point checks one bool
   and returns a shared no-op span; no ids are allocated, no thread-local
   state is touched, nothing is recorded.  The serve stack can therefore
   stay instrumented unconditionally (``python -m repro.bench obs``
   measures the disabled overhead against the uninstrumented path).
2. **Sampling at the root.**  The keep/drop decision is made once per
   dispatch; an unsampled root leaves the thread's span stack empty, so
   every child span (and :meth:`Tracer.emit`) short-circuits for free.
3. **Cross-process propagation.**  :meth:`Tracer.context` exports the
   active ``(trace_id, span_id)`` pair; a shard worker opens a
   :meth:`remote_root` under that parent, and the finished worker-side
   records travel back over the pipe (plain picklable dataclasses) to be
   :meth:`adopt`-ed into the front's ring — so a front-side dispatch
   trace contains its shard-worker child spans.

Span ids are salted with the process id, so ids minted by a shard worker
never collide with the front's.  ``start`` timestamps are wall-clock
(``time.time``) for cross-process ordering; ``seconds`` durations come
from ``time.perf_counter`` deltas.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = [
    "NULL_TRACER",
    "SpanRecord",
    "Tracer",
    "format_trace",
]

#: Process-salted span/trace id generator: unique within a process by the
#: counter, across cooperating processes (front + shard workers) by the
#: pid salt.  47 bits of counter keeps ids comfortably inside int64.
_ID_COUNTER = itertools.count(1)
_ID_SALT = (os.getpid() & 0xFFFF) << 47


def _next_id() -> int:
    return _ID_SALT | next(_ID_COUNTER)


@dataclass
class SpanRecord:
    """One finished span (picklable: crosses the shard worker pipe)."""

    trace_id: int
    span_id: int
    parent_id: int  # 0 for trace roots
    name: str
    start: float  # wall-clock seconds (time.time)
    seconds: float  # measured duration (perf_counter delta)
    meta: dict | None = None

    def to_dict(self) -> dict:
        """JSON-safe representation (used by the event-log exporter)."""
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
        }
        if self.meta:
            out["meta"] = {str(k): v for k, v in self.meta.items()}
        return out


class _NullSpan:
    """The shared do-nothing span (disabled tracer / unsampled dispatch)."""

    __slots__ = ()
    trace_id = 0
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **meta: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """A live span; records itself into the tracer's ring on exit."""

    __slots__ = (
        "_tracer", "_root", "_t0",
        "name", "trace_id", "span_id", "parent_id", "meta",
        "start", "seconds",
    )

    def __init__(self, tracer, name, trace_id, span_id, parent_id, meta, root):
        self._tracer = tracer
        self._root = root
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.meta = meta or None
        self.start = 0.0
        self.seconds = 0.0

    def set(self, **meta: object) -> None:
        """Attach metadata (no-op after the span has closed)."""
        if self.meta is None:
            self.meta = meta
        else:
            self.meta.update(meta)

    def __enter__(self) -> "_Span":
        tl = self._tracer._tl
        if self._root:
            tl.trace = []
        tl.stack.append(self)
        self.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self._tracer._finish(self)
        return False


class _ThreadState(threading.local):
    """Per-thread tracer state (initialized lazily per thread)."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.ring: deque[SpanRecord] | None = None
        self.trace: list[SpanRecord] | None = None  # active root's records
        self.last_trace: list[SpanRecord] | None = None


class Tracer:
    """Low-overhead nested span recorder with per-thread ring buffers.

    Parameters
    ----------
    enabled:
        ``False`` turns every entry point into a near-free no-op.
    sample_rate:
        Fraction of *dispatches* (root spans) recorded; children inherit
        the root's decision.
    ring_size:
        Finished spans retained per recording thread (oldest dropped).
    slow_threshold:
        Root spans at least this many **seconds** long hand their full
        trace to ``on_slow`` (the slow-dispatch exemplar hook).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; every
        finished span feeds a ``serve_phase_seconds{phase=<name>}``
        histogram, giving per-phase p50/p99 for free.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_rate: float = 1.0,
        ring_size: int = 4096,
        slow_threshold: float | None = None,
        on_slow=None,
        metrics=None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self.ring_size = int(ring_size)
        self.slow_threshold = slow_threshold
        self._on_slow = on_slow
        self._metrics = metrics
        self._hists: dict[str, object] = {}
        self._tl = _ThreadState()
        self._rings: list[deque[SpanRecord]] = []
        self._rings_lock = threading.Lock()
        self._random = random.random

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def dispatch(self, name: str, **meta: object):
        """Open a root span (or a child, when one is already active).

        The sampling decision is made here, once per trace: an unsampled
        dispatch returns the shared null span, leaving the thread's span
        stack empty so all nested instrumentation no-ops.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._tl.stack
        if stack:
            parent = stack[-1]
            return _Span(
                self, name, parent.trace_id, _next_id(), parent.span_id,
                meta, root=False,
            )
        if self.sample_rate < 1.0 and self._random() >= self.sample_rate:
            return NULL_SPAN
        return _Span(self, name, _next_id(), _next_id(), 0, meta, root=True)

    def span(self, name: str, **meta: object):
        """Open a child span of the active dispatch (no-op outside one)."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._tl.stack
        if not stack:
            return NULL_SPAN
        parent = stack[-1]
        return _Span(
            self, name, parent.trace_id, _next_id(), parent.span_id,
            meta, root=False,
        )

    def remote_root(self, name: str, context: tuple[int, int] | None,
                    **meta: object):
        """Open a root span under a *remote* parent (shard worker side).

        ``context`` is the ``(trace_id, span_id)`` pair exported by the
        front's :meth:`context`; sampling is skipped — the front already
        decided to record this dispatch.
        """
        if not self.enabled or context is None:
            return NULL_SPAN
        trace_id, parent_id = context
        return _Span(self, name, trace_id, _next_id(), parent_id, meta,
                     root=True)

    def emit(self, name: str, seconds: float, **meta: object) -> None:
        """Record a pre-measured child span of the active dispatch.

        Used where the measurement already exists (the join kernel's
        probe/refine timers, the cache resolve's timer) so tracing adds
        bookkeeping, not extra clock reads.
        """
        if not self.enabled:
            return
        stack = self._tl.stack
        if not stack:
            return
        parent = stack[-1]
        self._record(SpanRecord(
            trace_id=parent.trace_id,
            span_id=_next_id(),
            parent_id=parent.span_id,
            name=name,
            start=time.time() - seconds,
            seconds=seconds,
            meta=meta or None,
        ))

    def adopt(self, records) -> None:
        """Fold foreign finished spans (a shard worker's) into this ring."""
        if not self.enabled:
            return
        for record in records:
            self._record(record)

    # ------------------------------------------------------------------
    # Propagation & retrieval
    # ------------------------------------------------------------------

    def context(self) -> tuple[int, int] | None:
        """The active span's ``(trace_id, span_id)``, for propagation."""
        if not self.enabled:
            return None
        stack = self._tl.stack
        if not stack:
            return None
        top = stack[-1]
        return (top.trace_id, top.span_id)

    def take_last_trace(self) -> list[SpanRecord]:
        """Pop the records of this thread's most recently finished root."""
        tl = self._tl
        trace, tl.last_trace = tl.last_trace, None
        return trace or []

    def spans(self) -> list[SpanRecord]:
        """All retained finished spans, across threads, by start time."""
        with self._rings_lock:
            rings = list(self._rings)
        records = [record for ring in rings for record in list(ring)]
        records.sort(key=lambda record: record.start)
        return records

    def trace(self, trace_id: int) -> list[SpanRecord]:
        """Retained spans of one trace, by start time."""
        return [r for r in self.spans() if r.trace_id == trace_id]

    def reset(self) -> None:
        """Drop every retained span (rings stay registered)."""
        with self._rings_lock:
            for ring in self._rings:
                ring.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record(self, record: SpanRecord) -> None:
        tl = self._tl
        ring = tl.ring
        if ring is None:
            ring = deque(maxlen=self.ring_size)
            tl.ring = ring
            with self._rings_lock:
                self._rings.append(ring)
        ring.append(record)
        if tl.trace is not None:
            tl.trace.append(record)
        if self._metrics is not None:
            hist = self._hists.get(record.name)
            if hist is None:
                hist = self._metrics.histogram(
                    "serve_phase_seconds",
                    help="per-phase serve latency from the tracer",
                    labels={"phase": record.name},
                )
                self._hists[record.name] = hist
            hist.observe(record.seconds)

    def _finish(self, span: _Span) -> None:
        tl = self._tl
        if tl.stack and tl.stack[-1] is span:
            tl.stack.pop()
        record = SpanRecord(
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start=span.start,
            seconds=span.seconds,
            meta=span.meta,
        )
        self._record(record)
        if span._root:
            tl.last_trace, tl.trace = tl.trace, None
            if (
                self.slow_threshold is not None
                and span.seconds >= self.slow_threshold
                and self._on_slow is not None
            ):
                self._on_slow(list(tl.last_trace or ()))


#: The shared disabled tracer: services without an observability bundle
#: route their instrumentation here, paying one bool check per call.
NULL_TRACER = Tracer(enabled=False)


def format_trace(records) -> str:
    """Render one trace's records as an indented tree (debugging aid)."""
    children: dict[int, list[SpanRecord]] = {}
    by_id = {record.span_id: record for record in records}
    roots: list[SpanRecord] = []
    for record in sorted(records, key=lambda r: r.start):
        if record.parent_id in by_id:
            children.setdefault(record.parent_id, []).append(record)
        else:
            roots.append(record)
    lines: list[str] = []

    def walk(record: SpanRecord, depth: int) -> None:
        meta = (
            " " + " ".join(f"{k}={v}" for k, v in record.meta.items())
            if record.meta
            else ""
        )
        lines.append(
            f"{'  ' * depth}{record.name} {record.seconds * 1e3:.3f}ms{meta}"
        )
        for child in children.get(record.span_id, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
