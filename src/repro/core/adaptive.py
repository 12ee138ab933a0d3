"""Online workload-adaptive retraining (closing the Section 3.3.1 loop).

The paper trains the super covering on *historical* points in a dedicated
offline phase.  A live service cannot stop the world when traffic drifts —
a hotspot that moves cities leaves the index trained for yesterday's
workload, tanking the solely-true-hit (STH) rate exactly where load is.
This module turns the training phase into a feedback loop over the
machinery the serving stack already has:

* **telemetry** — the join driver's ``observe`` hook turns every probed
  batch into a :func:`traffic_increment` (each point keyed on its cell at
  the layer's deepest level, each key's row classified as expensive or
  not by its row table's ``expensive`` flag; a sharded front merges its
  lanes'),
  and :class:`LayerTelemetry` keeps a windowed STH rate plus a histogram
  of refinement traffic per cell.  Cost per probe is one ``np.unique``
  over the keys plus a few vectorized ops.
* **trigger** — :class:`AdaptiveController` watches the windowed STH rate
  after each dispatch; when it sinks below ``AdaptationPolicy.sth_target``
  (outside the cooldown), it claims a retrain slot and hands the observed
  traffic histogram to a background worker.
* **retrain** — the worker synthesizes a training point set from the
  histogram (hottest keys first, repeats capped) and retrains, hottest
  cells first, under a cell budget: ``PolygonIndex.retrained`` builds a
  fresh snapshot from a *copy* of the covering (swapped in atomically via
  the service's ``swap_layer``), while ``DynamicPolygonIndex.retrain`` is a
  compaction under the new training configuration, folding pending delta
  mutations into the trained snapshot.

Training only ever splits cells — no point's reference set changes — so
join results before and after an adaptation are bit-identical to a fresh
build; only the refinement work per point shrinks.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cells.vectorized import parent_ids_at_level

if TYPE_CHECKING:
    from repro.core.builder import ProbeView

#: Retrain entry points looked up on the layer index, in order.
_DYNAMIC_RETRAIN = "retrain"
_STATIC_RETRAIN = "retrained"

#: Cap on how often one cell repeats in a synthesized training set (each
#: repeat deepens that cell's subtree by at most one level).
MAX_REPEATS_PER_KEY = 64
#: Cell budget per retrain: this factor times the layer's covering size
#: when the controller first retrained it — anchored to that baseline so
#: repeated drift cycles cannot compound the ceiling geometrically.
CELL_BUDGET_FACTOR = 4.0
#: Histogram size guard: prune to the hottest half beyond this many cells.
MAX_TRACKED_KEYS = 65_536


@dataclass(frozen=True)
class AdaptationPolicy:
    """Knobs of the self-tuning loop (defaults need no operator input)."""

    #: Retrain when the windowed STH rate drops below this.
    sth_target: float = 0.85
    #: Telemetry window size in probed points (sliding).
    window_points: int = 32_768
    #: Do not judge the STH rate before this many points are in the window.
    min_window_points: int = 4_096
    #: Points to observe after a retrain before judging again.
    cooldown_points: int = 65_536
    #: Cap on the synthesized training set per retrain.
    max_training_points: int = 50_000


@dataclass(frozen=True)
class AdaptationStatus:
    """One layer's live adaptation state (surfaced in ``ServiceStats``)."""

    window_points: int
    window_sth_rate: float
    tracked_keys: int
    retrains_started: int
    retrains_completed: int
    retrains_failed: int
    retraining: bool
    last_trained_version: int  # 0 = never retrained


#: One probed batch's traffic: its distinct keys (sorted), the points
#: under each, and whether each key's row sends them to refinement.
TrafficIncrement = tuple[np.ndarray, np.ndarray, np.ndarray]


def traffic_increment(
    view: ProbeView, cell_ids: np.ndarray, rows: np.ndarray
) -> TrafficIncrement:
    """The increment of a batch probed through ``view``, from each point's
    leaf id and row of ``view.store.rows`` (the join driver's ``observe``
    hook arguments)."""
    keys = parent_ids_at_level(cell_ids, view.max_cell_level)
    # One representative row per key; every id sharing a key resolves
    # to the same row by construction.
    unique_keys, first, weights = np.unique(
        keys, return_index=True, return_counts=True
    )
    return unique_keys, weights, view.store.rows.expensive[rows[first]]


def merge_increments(parts: Sequence[TrafficIncrement]) -> TrafficIncrement:
    """:func:`traffic_increment` of the union of disjoint batches probed
    through one view, from theirs (a key's row is the same in each)."""
    keys, weights, expensive = (np.concatenate(column) for column in zip(*parts))
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    summed = np.bincount(inverse, weights, len(unique_keys)).astype(weights.dtype)
    return unique_keys, summed, expensive[first]


class LayerTelemetry:
    """Windowed refinement telemetry for one served layer (thread-safe).

    Keys are *cell ids*: each point's ancestor at the probed view's
    ``max_cell_level``, the deepest level any indexed cell has, so every
    point under one key resolved to the same row.  A cell id
    self-describes its extent, so histograms recorded over views of
    different depths (a retrain deepens the covering) stay in one
    coordinate system, and the retrain worker can synthesize training
    points spread across each hot cell's true leaf range.
    """

    def __init__(self, policy: AdaptationPolicy):
        self._policy = policy
        self._lock = threading.Lock()
        #: guarded_by(_lock)
        self._window: deque[tuple[int, int]] = deque()  # (points, refined)
        self._window_total = 0  #: guarded_by(_lock)
        self._window_refined = 0  #: guarded_by(_lock)
        self._hot: dict[int, int] = {}  # hot leaves #: guarded_by(_lock)
        #: guarded_by(_lock)
        self._points_since_retrain = policy.cooldown_points  # no initial cooldown

    def record(
        self, unique_keys: np.ndarray, weights: np.ndarray, expensive: np.ndarray
    ) -> None:
        """Fold one probe batch (already deduplicated to keys) in."""
        points = int(weights.sum())
        if points == 0:
            return
        refined = int(weights[expensive].sum())
        with self._lock:
            self._window.append((points, refined))
            self._window_total += points
            self._window_refined += refined
            self._points_since_retrain += points
            window_cap = self._policy.window_points
            # Slide: drop whole old records while the window overflows
            # (the newest record always stays, even if alone over cap).
            while len(self._window) > 1 and self._window_total > window_cap:
                old_points, old_refined = self._window.popleft()
                self._window_total -= old_points
                self._window_refined -= old_refined
            if refined:
                hot = self._hot
                for key, weight in zip(
                    unique_keys[expensive].tolist(), weights[expensive].tolist()
                ):
                    hot[key] = hot.get(key, 0) + int(weight)
                if len(hot) > MAX_TRACKED_KEYS:
                    keep = sorted(hot.items(), key=lambda kv: -kv[1])
                    self._hot = dict(keep[: MAX_TRACKED_KEYS // 2])

    def window_sth_rate(self) -> float:
        return self.status()[1]

    def should_adapt(self) -> bool:
        """Window full enough, STH below target, outside the cooldown."""
        policy = self._policy
        with self._lock:
            if self._window_total < policy.min_window_points:
                return False
            if self._points_since_retrain < policy.cooldown_points:
                return False
            if not self._hot:
                return False
            rate = 1.0 - self._window_refined / self._window_total
            return rate < policy.sth_target

    def snapshot_hot(self) -> dict[int, int]:
        with self._lock:
            return dict(self._hot)

    def reset_after_retrain(self) -> None:
        """Restart the window: old traffic described the old covering."""
        with self._lock:
            self._window.clear()
            self._window_total = 0
            self._window_refined = 0
            self._hot = {}
            self._points_since_retrain = 0

    def status(self) -> tuple[int, float, int]:
        with self._lock:
            rate = (
                1.0
                if self._window_total == 0
                else 1.0 - self._window_refined / self._window_total
            )
            return self._window_total, rate, len(self._hot)


class AdaptiveController:
    """Watches per-layer telemetry and retrains drifted layers online.

    One instance per :class:`~repro.serve.service.ServiceFront`, however
    many lanes join its layers.  The front hands each dispatch's traffic
    increment to :meth:`record` and calls :meth:`after_dispatch` after it
    (the trigger check, a few lock-free comparisons in the common case).
    Retraining runs on a daemon worker thread, one per layer at a time,
    and installs through the index's own snapshot machinery — dynamic
    indexes via their compaction (``retrain``), static snapshots via the
    ``swap`` callable (normally the front's ``swap_layer``).
    """

    def __init__(
        self,
        policy: AdaptationPolicy | None = None,
        swap: Callable[[str, object], object] | None = None,
        events=None,
        metrics=None,
    ):
        self.policy = policy or AdaptationPolicy()
        self._swap = swap
        # Optional telemetry plane: an event log receiving one structured
        # "retrain"/"retrain_failed" record per background attempt, and a
        # metrics registry keeping labeled outcome counters.
        self._events = events
        if metrics is not None:
            self._retrain_counters = {
                outcome: metrics.counter(
                    "adapt_retrains_total",
                    "background retrain attempts by outcome",
                    labels={"outcome": outcome},
                )
                for outcome in ("completed", "failed")
            }
        else:
            self._retrain_counters = None
        self._lock = threading.Lock()
        # Inserted under the lock, never removed: after_dispatch reads the
        # per-layer telemetry lock-free on the hot path (writes-only mode).
        self._telemetry: dict[str, LayerTelemetry] = {}  #: guarded_by(_lock, writes)
        self._retraining: dict[str, bool] = {}  #: guarded_by(_lock)
        self._workers: dict[str, threading.Thread] = {}  #: guarded_by(_lock)
        self._started: dict[str, int] = {}  #: guarded_by(_lock)
        self._completed: dict[str, int] = {}  #: guarded_by(_lock)
        self._failed: dict[str, int] = {}  #: guarded_by(_lock)
        self._last_version: dict[str, int] = {}  #: guarded_by(_lock)
        self._last_training_ids: dict[str, np.ndarray] = {}  #: guarded_by(_lock)
        self._baseline_cells: dict[str, int] = {}  #: guarded_by(_lock)
        self._last_error: Exception | None = None  #: guarded_by(_lock, writes)

    # ------------------------------------------------------------------
    # Service-facing wiring
    # ------------------------------------------------------------------

    def telemetry_for(self, layer: str) -> LayerTelemetry:
        with self._lock:
            telemetry = self._telemetry.get(layer)
            if telemetry is None:
                telemetry = LayerTelemetry(self.policy)
                self._telemetry[layer] = telemetry
            return telemetry

    def record(self, layer: str, increment: TrafficIncrement) -> None:
        """Fold one dispatch's traffic into ``layer``'s telemetry."""
        self.telemetry_for(layer).record(*increment)

    def after_dispatch(self, layer: str, index: object) -> bool:
        """Trigger check; starts a background retrain when drift is seen."""
        telemetry = self._telemetry.get(layer)
        if telemetry is None or not telemetry.should_adapt():
            return False
        with self._lock:
            if self._retraining.get(layer):
                return False
            self._retraining[layer] = True
            self._started[layer] = self._started.get(layer, 0) + 1
            worker = threading.Thread(
                target=self._retrain_worker,
                args=(layer, index, telemetry),
                name=f"repro-adapt-{layer}",
                daemon=True,
            )
            self._workers[layer] = worker
        worker.start()
        return True

    # ------------------------------------------------------------------
    # Retraining
    # ------------------------------------------------------------------

    def training_ids_from(self, hot: dict[int, int]) -> np.ndarray:
        """Synthesize a training point set from a refinement histogram.

        Hottest cells first; per-cell repeats capped and the total capped,
        so a retrain's cost is bounded no matter how much traffic the
        window saw.  A cell's repeats are *spread evenly across its leaf
        range* rather than stacked on one representative point: stacked
        repeats would drive every split down a single path (needlessly
        deepening the covering and shrinking the sound cache key), while
        spread ones split like real traffic — one level per round,
        branching into the children.  A retrain splits hottest-first, so a
        budgeted retrain spends its cells on the head of this ranking.
        """
        policy = self.policy
        parts: list[np.ndarray] = []
        total = 0
        for key, count in sorted(hot.items(), key=lambda kv: -kv[1]):
            if total >= policy.max_training_points:
                break
            repeat = min(count, MAX_REPEATS_PER_KEY,
                         policy.max_training_points - total)
            lsb = key & -key  # == number of leaf slots in the cell
            lo = key - (lsb - 1)  # range_min leaf id (odd)
            repeat = min(repeat, lsb)
            step = 2 * (lsb // repeat)  # even: samples stay on leaf ids
            parts.append(
                np.uint64(lo) + np.uint64(step) * np.arange(repeat, dtype=np.uint64)
            )
            total += repeat
        if not parts:
            return np.zeros(0, dtype=np.uint64)
        return np.concatenate(parts)

    def _cell_budget(self, layer: str, index: object) -> int | None:
        num_cells = getattr(index, "num_cells", None)
        if num_cells is None:
            return None
        # Anchored to the covering size seen at the layer's FIRST retrain
        # (see CELL_BUDGET_FACTOR).
        with self._lock:
            baseline = self._baseline_cells.setdefault(layer, int(num_cells))
        return int(math.ceil(CELL_BUDGET_FACTOR * baseline))

    def _retrain_worker(
        self, layer: str, index: object, telemetry: LayerTelemetry
    ) -> None:
        try:
            training_ids = self.training_ids_from(telemetry.snapshot_hot())
            budget = self._cell_budget(layer, index)
            retrain = getattr(index, _DYNAMIC_RETRAIN, None)
            if callable(retrain):
                installed = retrain(training_ids, max_cells=budget)
                version = int(getattr(installed, "version", getattr(index, "version", 0)))
            else:
                fresh = getattr(index, _STATIC_RETRAIN)(training_ids, max_cells=budget)
                if self._swap is None:
                    raise RuntimeError(
                        "no swap callable configured for static snapshots"
                    )
                self._swap(layer, fresh)
                version = int(fresh.version)
            telemetry.reset_after_retrain()
            with self._lock:
                self._completed[layer] = self._completed.get(layer, 0) + 1
                self._last_version[layer] = version
                self._last_training_ids[layer] = training_ids
            if self._retrain_counters is not None:
                self._retrain_counters["completed"].inc()
            if self._events is not None:
                self._events.emit(
                    "retrain",
                    layer=layer,
                    version=version,
                    training_cells=int(len(training_ids)),
                )
        except Exception as exc:  # surfaced via stats + last_error
            with self._lock:
                self._failed[layer] = self._failed.get(layer, 0) + 1
                self._last_error = exc
            if self._retrain_counters is not None:
                self._retrain_counters["failed"].inc()
            if self._events is not None:
                self._events.emit(
                    "retrain_failed", layer=layer, error=repr(exc)
                )
        finally:
            with self._lock:
                self._retraining[layer] = False

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------

    def last_training_ids(self, layer: str) -> np.ndarray | None:
        """The training set the last completed retrain of ``layer`` used."""
        with self._lock:
            ids = self._last_training_ids.get(layer)
            return None if ids is None else ids.copy()

    @property
    def last_error(self) -> Exception | None:
        return self._last_error

    def status(self) -> dict[str, AdaptationStatus]:
        with self._lock:
            layers = list(self._telemetry.items())
            started = dict(self._started)
            completed = dict(self._completed)
            failed = dict(self._failed)
            retraining = dict(self._retraining)
            versions = dict(self._last_version)
        out: dict[str, AdaptationStatus] = {}
        for layer, telemetry in layers:
            window_points, rate, tracked = telemetry.status()
            out[layer] = AdaptationStatus(
                window_points=window_points,
                window_sth_rate=rate,
                tracked_keys=tracked,
                retrains_started=started.get(layer, 0),
                retrains_completed=completed.get(layer, 0),
                retrains_failed=failed.get(layer, 0),
                retraining=retraining.get(layer, False),
                last_trained_version=versions.get(layer, 0),
            )
        return out

    def wait(self, timeout: float | None = None) -> None:
        """Block until in-flight retrains finish (tests and benchmarks)."""
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.join(timeout)

    def close(self) -> None:
        self.wait(timeout=60.0)
