"""Telemetry overhead: tracing modes vs. the uninstrumented serve path.

Not a paper experiment — this measures the cost of the ``repro.obs``
telemetry plane on a batched serve stream over the neighborhoods layer.
Four modes run over the same uniform exact-join workload:

* **baseline** — ``JoinService`` with no observability attached,
* **disabled** — ``Observability(tracing=False)`` (metrics only; every
  span site hits the null tracer),
* **sampled** — tracing at a 5 % dispatch sample rate,
* **full** — every dispatch traced.

Modes are interleaved across repetitions (best-of per mode) so clock
drift hits all modes equally.  The run fails with ``RuntimeError`` when
the tracing-disabled overhead exceeds ``config.obs_overhead_bound`` —
the bound CI's obs-smoke job enforces.  A second table breaks the
full-trace run down per phase (p50/p99 from the registry's
``serve_phase_seconds`` histograms).
"""

from __future__ import annotations

import json

from repro.bench.result import ExperimentResult
from repro.bench.workbench import Workbench
from repro.core.builder import BuildTimings, PolygonIndex
from repro.datasets import uniform_points_for
from repro.obs import Observability
from repro.serve import JoinService
from repro.util.timing import Timer

#: Precision bound (meters) for the served layer.
SERVE_PRECISION = 15.0

#: Tracing configuration per mode; ``None`` means no Observability at all.
MODES: tuple[tuple[str, dict | None], ...] = (
    ("baseline", None),
    ("disabled", {"tracing": False}),
    ("sampled", {"tracing": True, "sample_rate": 0.05}),
    ("full", {"tracing": True, "sample_rate": 1.0}),
)


def _service_index(workbench: Workbench, dataset: str = "neighborhoods") -> PolygonIndex:
    """Wrap the workbench's cached covering/store into a PolygonIndex."""
    covering, _ = workbench.super_covering(dataset, SERVE_PRECISION)
    store = workbench.store(dataset, SERVE_PRECISION, "ACT4")
    return PolygonIndex(
        workbench.polygons(dataset),
        covering,
        store,
        timings=BuildTimings(),
        precision_meters=SERVE_PRECISION,
        training_report=None,
    )


def _stream_once(index, lats, lngs, batch: int, obs_kwargs: dict | None):
    """One pass of the stream; returns (seconds, stats, obs or None)."""
    obs = Observability(**obs_kwargs) if obs_kwargs is not None else None
    with JoinService(index, obs=obs) as service:
        with Timer() as timer:
            for lo in range(0, len(lats), batch):
                service.join(lats[lo : lo + batch], lngs[lo : lo + batch], exact=True)
        stats = service.stats()
    return timer.seconds, stats, obs


def _phase_rows(obs: Observability):
    """(phase, count, p50 ms, p99 ms, total s) per traced phase."""
    rows = []
    for metric in obs.metrics.collect():
        if metric.name != "serve_phase_seconds" or metric.kind != "histogram":
            continue
        phase = metric.labels.get("phase", "?")
        rows.append(
            (
                phase,
                metric.count,
                metric.percentile(50.0) * 1e3,
                metric.percentile(99.0) * 1e3,
                metric.sum,
            )
        )
    rows.sort(key=lambda row: row[4], reverse=True)
    return rows


def run(workbench: Workbench) -> list[ExperimentResult]:
    config = workbench.config
    index = _service_index(workbench)
    zones = workbench.polygons("neighborhoods")
    lats, lngs = uniform_points_for(zones, config.obs_requests, seed=config.seed)
    batch = config.obs_batch

    best: dict[str, float] = {name: float("inf") for name, _ in MODES}
    full_obs: Observability | None = None
    full_stats = None
    for _ in range(max(1, config.obs_reps)):
        for name, obs_kwargs in MODES:
            seconds, stats, obs = _stream_once(index, lats, lngs, batch, obs_kwargs)
            best[name] = min(best[name], seconds)
            if name == "full":
                full_obs, full_stats = obs, stats

    overhead = ExperimentResult(
        experiment_id="obs_overhead",
        title="Telemetry overhead: tracing modes vs. uninstrumented serving",
        headers=["mode", "requests/s", "overhead"],
    )
    base_seconds = best["baseline"]
    overheads: dict[str, float] = {}
    for name, _ in MODES:
        seconds = best[name]
        rps = len(lats) / seconds if seconds > 0 else 0.0
        pct = (seconds / base_seconds - 1.0) * 100.0 if base_seconds > 0 else 0.0
        overheads[name] = pct
        overhead.add_row(
            name,
            f"{rps:,.0f}",
            "-" if name == "baseline" else f"{pct:+.1f}%",
        )
    overhead.add_note(
        f"tracing-disabled overhead {overheads['disabled']:+.1f}% "
        f"(acceptance: < {config.obs_overhead_bound:.0f}%)"
    )

    phases = ExperimentResult(
        experiment_id="obs_phases",
        title="Per-phase latency breakdown (full tracing)",
        headers=["phase", "spans", "p50 ms", "p99 ms", "total s"],
    )
    assert full_obs is not None and full_stats is not None
    for phase, count, p50_ms, p99_ms, total in _phase_rows(full_obs):
        phases.add_row(phase, f"{count:,}", f"{p50_ms:.3f}", f"{p99_ms:.3f}", f"{total:.2f}")
    stats_dict = full_stats.to_dict()
    phases.add_note(
        "full-trace service stats (JSON excerpt): "
        + json.dumps(
            {
                key: stats_dict[key]
                for key in ("points", "throughput_pps", "throughput_wall_pps", "p99_ms")
            }
        )
    )
    full_obs.close()

    if overheads["disabled"] > config.obs_overhead_bound:
        raise RuntimeError(
            f"tracing-disabled overhead {overheads['disabled']:+.1f}% exceeds "
            f"the {config.obs_overhead_bound:.1f}% bound "
            f"(baseline {base_seconds:.3f}s, disabled {best['disabled']:.3f}s)"
        )
    return [overhead, phases]
