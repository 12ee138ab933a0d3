"""The traced run: a per-layer budget, measured from outside.

Each read is issued for real (timed as a whole, tracing off) and
replayed layer by layer on the same batch, in alternating order; the
store the real path does *not* probe (cached vs. raw) is timed beside the
replay, so ``serve.cache_overhead_s`` has both sides.  Writes and
compactions are timed as whole calls.  Span durations are calibrated per
step like the end-to-end latencies; one-shot set-up timings (build,
spawn, pack, attach) are plain wall seconds.
"""

from __future__ import annotations

import itertools
import statistics
from collections import Counter, defaultdict

import numpy as np

from repro.core.flat import FlatSnapshot, pack_index
from repro.core.lookup_table import TAG_OFFSET
from repro.serve.cache import CachedCellStore, HotCellCache, key_shift_for_level
from repro.util.timing import Timer

from e2ebench.clock import ReferenceKernel, calibration_factors
from e2ebench.measure import Failures
from e2ebench.spans import (
    CACHE_PROBE,
    CELLS,
    DECODE,
    OP,
    PROBE,
    REFINE,
    ReplayResult,
    SpanLog,
    layered_replay,
)
from e2ebench.workloads import COMPACT, DELETE, INSERT, READ, Workload

#: The cache the serve layer puts in front of every layer by default.
CACHE_CELLS = 4096
#: Passes replayed layer by layer.  A fixed count, not a time budget, so
#: span totals and work counts of two traced runs are comparable.
TRACED_PASSES = 2

_WRITE_SPANS = {
    INSERT: "core.dynamic_insert",
    DELETE: "core.dynamic_delete",
    COMPACT: "core.dynamic_compact",
}
#: Raw-store probes of reads issued while the delta overlay is non-empty.
_OVERLAY_PROBE = "core.overlay_probe"


class _HarnessCache:
    """The serve layer's cache, rebuilt from outside.

    One ``CachedCellStore`` per probe-view version, exactly as
    ``JoinService`` keeps them: a write bumps the version and the next
    read starts on a cold cache.  Counters of retired generations are
    kept so hit rate and evictions cover the whole traced run.
    """

    def __init__(self) -> None:
        self._version = None
        self._store: CachedCellStore | None = None
        self.hits = self.misses = self.evictions = 0

    def store_for(self, view) -> CachedCellStore:
        if view.version != self._version:
            self.retire()
            self._version = view.version
            self._store = CachedCellStore(
                view.store,
                HotCellCache(CACHE_CELLS),
                key_shift_for_level(view.max_cell_level),
            )
        return self._store

    def retire(self) -> None:
        """Fold the current generation's counters into the totals."""
        if self._store is not None:
            stats = self._store.cache.stats()
            self.hits += stats.hits
            self.misses += stats.misses
            self.evictions += stats.evictions
        self._store = self._version = None


def run_traced(
    workload: Workload, failures: Failures, spans_path: str | None = None
) -> tuple[dict[str, float], int]:
    """Run the workload's traced passes; returns every per-layer metric
    by name and the number of steps issued."""
    index = workload.index
    kernel = ReferenceKernel()
    log = SpanLog()
    cache = _HarnessCache()
    kernel_seconds: list[float] = []
    real_wall: dict[int, float] = {}  # step -> wall seconds of the real read
    counts: Counter[str] = Counter()
    delta_size_max = 0
    avg_depth = 0.0
    workload.begin_trace()
    for steps in itertools.islice(workload.passes(), TRACED_PASSES):
        for step in steps:
            log.step = len(kernel_seconds)
            if step.kind == READ:
                lats, lngs = workload.batch(step.batch)
                view = index.probe_view()
                cached = cache.store_for(view)
                under_delta = getattr(index, "delta_size", 0) > 0
                # Whichever goes first finds the caches the reference
                # kernel left cold; alternate so neither side pays for it.
                replay_first = log.step % 2 == 1
                if replay_first:
                    replay = _replay(log, workload, view, cached, lats, lngs)
                with Timer() as real_timer:
                    result = workload.join(lats, lngs)
                real_wall[log.step] = real_timer.seconds
                if not replay_first:
                    replay = _replay(log, workload, view, cached, lats, lngs)
                side_store, side_span = (
                    (view.store, _OVERLAY_PROBE if under_delta else PROBE)
                    if workload.served
                    else (cached, CACHE_PROBE)
                )
                with log.span(side_span):
                    side_store.probe(replay.cell_ids)
                workload.trace_read(log, lats, lngs, replay)
                problem = replay.mismatch(result)
                if problem:
                    failures.add(
                        f"step {log.step}: layered replay differs in {problem}"
                    )
                if not counts:
                    avg_depth = _probe_depth(index, replay.cell_ids)
                counts.update(_read_counts(replay, cached.key_shift))
            else:
                with log.span(_WRITE_SPANS[step.kind]):
                    workload.apply(step)
                delta_size_max = max(delta_size_max, index.delta_size)
            kernel_seconds.append(kernel.sample())
    cache.retire()
    if spans_path:
        log.write(spans_path)

    factors = calibration_factors(np.asarray(kernel_seconds))
    by_name: defaultdict[str, list[float]] = defaultdict(list)
    path_seconds = 0.0  # replayed layer spans: the path the real op takes
    for span in log.spans:
        scaled = span.seconds * factors[span.step]
        by_name[span.name].append(scaled)
        if span.parent is not None:
            path_seconds += scaled

    def total(*names: str) -> float:
        return float(sum(sum(by_name[name]) for name in names))

    real_seconds = sum(
        seconds * factors[step] for step, seconds in real_wall.items()
    )
    self_seconds = real_seconds - path_seconds
    points = counts["points"]
    probe_seconds = total(PROBE, _OVERLAY_PROBE)
    writes = by_name[_WRITE_SPANS[INSERT]] + by_name[_WRITE_SPANS[DELETE]]
    compactions = by_name[_WRITE_SPANS[COMPACT]]
    timings = workload.build_timings
    flat = _flat_snapshot_costs(getattr(index, "base", index))

    metrics = {
        "cells.cell_ids_s": total(CELLS),
        "cells.cell_ids_ns_per_point": total(CELLS) / points * 1e9,
        "core.probe_s": probe_seconds,
        "core.probe_avg_depth": avg_depth,
        "core.index_bytes": float(index.size_bytes),
        "core.num_cells": float(index.num_cells),
        "core.decode_s": total(DECODE),
        "core.pairs_per_point": counts["decoded"] / points,
        "core.candidate_share": _share(counts["candidates"], counts["decoded"]),
        "core.offset_entry_share": counts["offset_entries"] / points,
        "core.sth_rate": counts["sth"] / points,
        "geo.refine_s": total(REFINE),
        "geo.pip_tests_per_point": counts["pip"] / points,
        "geo.refine_ns_per_pip": _share(total(REFINE), counts["pip"]) * 1e9,
        "serve.cache_probe_s": total(CACHE_PROBE),
        "serve.cache_overhead_s": total(CACHE_PROBE) - probe_seconds,
        "serve.cache_hit_rate": _share(cache.hits, cache.hits + cache.misses),
        "serve.cache_unique_key_share": counts["unique_keys"] / points,
        "serve.cache_evictions": float(cache.evictions),
        "serve.dispatch_self_s": self_seconds,
        "serve.dispatch_self_us_per_op": self_seconds / len(real_wall) * 1e6,
        "core.dynamic_insert_s": total(_WRITE_SPANS[INSERT]),
        "core.dynamic_delete_s": total(_WRITE_SPANS[DELETE]),
        "core.dynamic_compact_s": total(_WRITE_SPANS[COMPACT]),
        "core.overlay_probe_s": total(_OVERLAY_PROBE),
        "core.delta_size_max": float(delta_size_max),
        "core.compactions": float(getattr(index, "compactions", 0)),
        "write_p50_ms": statistics.median(writes) * 1e3 if writes else 0.0,
        "compact_s": statistics.median(compactions) if compactions else 0.0,
        "core.build_s": workload.build_seconds,
        "core.build_cover_s": timings.individual_coverings_seconds,
        "core.build_merge_s": timings.super_covering_seconds,
        "core.build_precision_s": timings.refinement_seconds,
        "core.build_train_s": timings.training_seconds,
        "core.build_store_s": timings.store_build_seconds,
        **flat,
        "harness.unattributed_share": 1.0 - path_seconds / total(OP),
        "harness.trace_overhead_share": total(OP) / real_seconds - 1.0,
        "harness.kernel_ms": statistics.median(kernel_seconds) * 1e3,
    }
    metrics.update(
        workload.end_trace(
            real_seconds=real_seconds,
            raw_real_seconds=sum(real_wall.values()),
            cells_seconds=total(CELLS),
            route_seconds=total("serve.shard_route"),
            reads=len(real_wall),
            factors=factors,
        )
    )
    return metrics, len(kernel_seconds)


def _replay(
    log: SpanLog, workload: Workload, view, cached: CachedCellStore, lats, lngs
) -> ReplayResult:
    """Replay one read along the path its real op takes: through the
    harness-built cached store where a serve-layer cache fronts the op."""
    store, span = (cached, CACHE_PROBE) if workload.served else (view.store, PROBE)
    return layered_replay(log, view, store, span, lats, lngs, workload.exact)


def _read_counts(replay: ReplayResult, key_shift: int) -> dict[str, int]:
    """Exact work counts of one replayed read (taken outside the spans)."""
    tags = replay.entries & np.uint64(3)
    keys = replay.cell_ids >> np.uint64(key_shift)
    return {
        "points": len(replay.cell_ids),
        "decoded": replay.num_decoded_pairs,
        "candidates": replay.num_candidate_pairs,
        "pip": replay.num_pip_tests,
        "sth": replay.solely_true_hits,
        "offset_entries": int(np.count_nonzero(tags == np.uint64(TAG_OFFSET))),
        "unique_keys": len(np.unique(keys)),
    }


def _flat_snapshot_costs(index) -> dict[str, float]:
    """Pack the index into one flat blob and attach to it again."""
    with Timer() as pack_timer:
        snapshot = pack_index(index)
        blob = snapshot.to_bytes()
    with Timer() as attach_timer:
        FlatSnapshot.from_buffer(blob)
    return {
        "core.flat_pack_s": pack_timer.seconds,
        "core.flat_attach_s": attach_timer.seconds,
        "core.flat_bytes": float(snapshot.nbytes),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _probe_depth(index, cell_ids: np.ndarray) -> float:
    """Average trie node accesses per point, where the store reports it.

    An overlay store has no instrumented probe of its own; its base
    snapshot's trie is what every read descends first.
    """
    for owner in (index, getattr(index, "base", None)):
        instrumented = getattr(
            getattr(owner, "store", None), "probe_instrumented", None
        )
        if instrumented is not None:
            return float(instrumented(cell_ids)[1].avg_depth)
    return 0.0
