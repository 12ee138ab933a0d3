"""Benchmark scales.

The paper's full workloads (1.23 B taxi points, 39 k census polygons) are
scaled to laptop size; every knob here can be raised toward paper scale.
Two presets:

* ``BenchConfig.quick()`` — seconds-per-experiment, for CI and smoke runs
  (``python -m repro.bench --quick``; a run is checked in under
  ``results/paper/quick/``),
* ``BenchConfig()`` (default) — minutes for the full suite on two cores
  (``results/paper/full/``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchConfig:
    """Scales and sweep parameters for the experiment runners."""

    #: Taxi-analog probe points (paper: 1.23 B).
    taxi_points: int = 1_000_000
    #: Uniform synthetic probe points (paper: 100 M).
    uniform_points: int = 500_000
    #: Twitter-analog points for NYC; other cities scale relative (Fig. 9).
    twitter_nyc_points: int = 400_000
    #: Precision sweep in meters (Table 1, Fig. 7 middle, Fig. 9, Fig. 11).
    precisions: tuple[float, ...] = (60.0, 15.0, 4.0)
    #: Census polygon count (paper: 39,184; default here: 2,000).
    census_polygons: int = 2000
    #: Thread sweep for Fig. 7 (right); capped by the machine.
    threads: tuple[int, ...] = (1, 2, 4, 8)
    #: Training-point sweep for Tables 6/7 (paper: 100 K / 500 K / 1 M).
    training_points: tuple[int, ...] = (100_000, 500_000, 1_000_000)
    #: Points used against the slow filter-and-refine baselines (RT/PG).
    slow_baseline_points: int = 100_000
    #: GPU-substitute max texture size per rendering pass (Fig. 11).
    max_texture: int = 1024
    #: Adaptation benchmark: historical (training) points per drift phase.
    adapt_train_points: int = 100_000
    #: Adaptation benchmark: live query points per drift phase.
    adapt_query_points: int = 150_000
    #: Adaptation benchmark: request batch size streamed at the services.
    adapt_batch: int = 8_192
    #: Observability benchmark: requests streamed per tracing mode.
    obs_requests: int = 200_000
    #: Observability benchmark: batch size per dispatch.
    obs_batch: int = 4_096
    #: Observability benchmark: repetitions per mode (best-of).
    obs_reps: int = 3
    #: Observability benchmark: accepted overhead (percent) of the
    #: tracing-disabled service vs. the uninstrumented path.
    obs_overhead_bound: float = 2.0
    #: Base RNG seed for every generator.
    seed: int = 42

    @staticmethod
    def quick() -> "BenchConfig":
        """A configuration small enough for smoke tests."""
        return BenchConfig(
            taxi_points=100_000,
            uniform_points=50_000,
            twitter_nyc_points=50_000,
            precisions=(60.0, 15.0),
            census_polygons=400,
            threads=(1, 2),
            training_points=(10_000, 50_000),
            slow_baseline_points=20_000,
            adapt_train_points=20_000,
            adapt_query_points=40_000,
            adapt_batch=4_096,
            obs_requests=30_000,
            obs_batch=2_048,
            obs_reps=2,
            obs_overhead_bound=25.0,
        )
