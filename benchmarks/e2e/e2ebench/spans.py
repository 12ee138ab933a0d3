"""From-outside tracing: in-memory spans and the layered replay of a join.

The program is not instrumented.  In a traced run the harness replaces
each ``join`` by a *layered replay*: it calls the layers' public
functions in the order the join drivers call them, on the same batch,
and records one span per call.  Spans stay in memory and are written out
only when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.builder import ProbeView
from repro.core.joins import decode_entries

#: Span names of the layered replay (also the per-layer metric stems).
CELLS = "cells.cell_ids"
PROBE = "core.probe"
CACHE_PROBE = "serve.cache_probe"
DECODE = "core.decode"
REFINE = "geo.refine"
OP = "op"


@dataclass
class Span:
    """One recorded interval; ``parent`` is the enclosing op span's id."""

    span_id: int
    step: int  # index of the benchmark step this span belongs to
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Append-only in-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: The benchmark step being executed; the runner advances it.
        self.step = 0
        self._parent: int | None = None

    def begin_op(self) -> "_Recorder":
        """Open the current step's op span; layer spans nest under it."""
        return _Recorder(self, OP, is_op=True)

    def span(self, name: str) -> "_Recorder":
        return _Recorder(self, name, is_op=False)

    def write(self, path: str) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


class _Recorder:
    def __init__(self, log: SpanLog, name: str, is_op: bool):
        self._log = log
        self._name = name
        self._is_op = is_op

    def __enter__(self) -> "_Recorder":
        log = self._log
        self._span = Span(
            len(log.spans), log.step, self._name, 0.0, 0.0, log._parent
        )
        log.spans.append(self._span)
        if self._is_op:
            log._parent = self._span.span_id
        self._span.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._span.end = time.perf_counter()
        if self._is_op:
            self._log._parent = None


@dataclass
class ReplayResult:
    """What a layered replay must reproduce of the real ``JoinResult``."""

    counts: np.ndarray
    num_pairs: int
    num_pip_tests: int
    solely_true_hits: int
    num_decoded_pairs: int  # true-hit + candidate pairs out of the decode
    num_candidate_pairs: int
    cell_ids: np.ndarray
    entries: np.ndarray

    def mismatch(self, result) -> str | None:
        """First field that differs from the untraced ``JoinResult``."""
        if not np.array_equal(self.counts, result.counts):
            return "counts"
        for name in ("num_pairs", "num_pip_tests"):
            if getattr(self, name) != getattr(result, name):
                return name
        return None


def layered_replay(
    log: SpanLog,
    view: ProbeView,
    store,
    store_span: str,
    lats: np.ndarray,
    lngs: np.ndarray,
    exact: bool,
) -> ReplayResult:
    """One join, layer by layer, through the layers' public functions.

    ``store`` is what the replayed path probes: the view's own cell
    store for an offline join (``store_span`` = ``core.probe``), the
    harness-built cached store for a served one (``serve.cache_probe``).
    The reduction to per-polygon counts sits inside the last layer's
    span, as it does inside the join drivers' own timers.
    """
    with log.begin_op():
        with log.span(CELLS):
            cell_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        with log.span(store_span):
            entries = store.probe(cell_ids)
        if exact:
            with log.span(DECODE):
                point_idx, pids, is_true = decode_entries(
                    entries, view.lookup_table
                )
            with log.span(REFINE):
                keep_points, keep_pids, num_pip, num_refined = (
                    view.refiner.refine(point_idx, pids, is_true, lngs, lats)
                )
                counts = np.bincount(keep_pids, minlength=len(view.polygons))
            num_pairs = len(keep_points)
        else:
            with log.span(DECODE):
                point_idx, pids, is_true = decode_entries(
                    entries, view.lookup_table
                )
                counts = np.bincount(pids, minlength=len(view.polygons))
            num_pairs, num_pip, num_refined = len(point_idx), 0, 0
    return ReplayResult(
        counts=counts,
        num_pairs=num_pairs,
        num_pip_tests=int(num_pip),
        solely_true_hits=len(lats) - int(num_refined),
        num_decoded_pairs=len(point_idx),
        num_candidate_pairs=int(np.count_nonzero(~is_true)),
        cell_ids=cell_ids,
        entries=entries,
    )
