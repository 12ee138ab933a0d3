"""The untraced run: end-to-end metrics, measured with tracing off."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.util.timing import Timer

from e2ebench import oracle
from e2ebench.clock import ReferenceKernel, calibration_factors
from e2ebench.inputs import fingerprint
from e2ebench.workloads import COMPACT, DELETE, INSERT, READ, Workload

#: A brute-force oracle check on every this-many-th read.
ORACLE_EVERY = 50
_MAX_FAILURE_MESSAGES = 20


@dataclass
class Failures:
    """Ops that raised, failed the oracle, or broke a consistency check."""

    count: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < _MAX_FAILURE_MESSAGES:
            self.messages.append(message)


def timed_setup(workload: Workload, repeats: int) -> list[float]:
    """Set the workload up ``repeats`` times; the last one stays up."""
    seconds = []
    for repeat in range(repeats):
        if repeat:
            workload.close()
        with Timer() as timer:
            workload.setup()
        seconds.append(timer.seconds)
    return seconds


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------


@dataclass
class Untraced:
    """Everything one untraced measurement recorded."""

    kinds: np.ndarray  # step kind of each step
    passes: np.ndarray  # pass number of each step
    seconds: np.ndarray  # wall seconds of each step
    factors: np.ndarray  # calibration factor of each step
    points_per_read: int
    kernel_ms: float
    result_fingerprint: str
    oracle_checks: int

    def calibrated(self, *kinds: str) -> np.ndarray:
        return (self.seconds * self.factors)[np.isin(self.kinds, kinds)]

    def points_per_second(self) -> tuple[float, int]:
        """Median over passes of points joined / calibrated pass time."""
        scaled = self.seconds * self.factors
        rates = []
        for number in np.unique(self.passes):
            in_pass = self.passes == number
            reads = np.count_nonzero(in_pass & (self.kinds == READ))
            rates.append(reads * self.points_per_read / scaled[in_pass].sum())
        return statistics.median(rates), len(rates)


def run_untraced(
    workload: Workload, seconds: float, failures: Failures
) -> Untraced:
    """Issue the workload's steps for ``seconds``, one closed-loop client.

    Every step is timed on its own and followed by one reference-kernel
    sample.  Oracle checks, consistency checks and fingerprinting happen
    between steps, outside every timed region.
    """
    kernel = ReferenceKernel()
    kinds: list[str] = []
    passes: list[int] = []
    durations: list[float] = []
    kernel_seconds: list[float] = []
    first_counts: dict[int, np.ndarray] = {}
    summed = np.zeros(0, dtype=np.int64)
    reads = oracle_checks = 0
    check_next_read = False
    deadline = time.perf_counter() + seconds
    for number, steps in enumerate(workload.passes()):
        in_sweep = number < workload.sweep_passes
        for step in steps:
            result = None
            start = time.perf_counter()
            try:
                if step.kind == READ:
                    lats, lngs = workload.batch(step.batch)
                    result = workload.join(lats, lngs)
                else:
                    workload.apply(step)
            except Exception as error:  # an op that raises is a failed op
                failures.add(f"{step.kind} raised {error!r}")
            durations.append(time.perf_counter() - start)
            kernel_seconds.append(kernel.sample())
            kinds.append(step.kind)
            passes.append(number)
            if step.kind == COMPACT:
                check_next_read = True
            if result is None:
                continue
            if in_sweep:
                width = max(len(summed), len(result.counts))
                summed = np.pad(summed, (0, width - len(summed)))
                summed[: len(result.counts)] += result.counts
            if not workload.mutates_index:
                seen = first_counts.setdefault(step.batch, result.counts)
                if not np.array_equal(seen, result.counts):
                    failures.add(
                        f"batch {step.batch}: counts differ from its first join"
                    )
            due = reads % ORACLE_EVERY == 0 and (
                in_sweep or workload.mutates_index
            )
            if due or check_next_read:
                check_next_read = False
                oracle_checks += 1
                problem = _oracle_check(workload, result, lats, lngs)
                if problem:
                    failures.add(f"read {reads}: {problem}")
            reads += 1
        if number + 1 >= workload.sweep_passes and time.perf_counter() >= deadline:
            break
    return Untraced(
        kinds=np.asarray(kinds),
        passes=np.asarray(passes),
        seconds=np.asarray(durations),
        factors=calibration_factors(np.asarray(kernel_seconds)),
        points_per_read=workload.sizes.points_per_op,
        kernel_ms=statistics.median(kernel_seconds) * 1e3,
        result_fingerprint=fingerprint([summed]),
        oracle_checks=oracle_checks,
    )


def _oracle_check(workload: Workload, result, lats, lngs) -> str | None:
    polygons = workload.live_polygons()
    if workload.exact:
        return oracle.check_exact(result, polygons, lats, lngs)
    materialized = workload.join(lats, lngs, materialize=True)
    return oracle.check_approximate(
        result, materialized, polygons, lats, lngs, workload.precision_meters
    )


def end_to_end_metrics(
    setup_seconds: list[float], run: Untraced
) -> tuple[dict[str, float], dict[str, float]]:
    """The declared end-to-end metrics, plus context printed beside them."""
    reads = run.calibrated(READ) * 1e3
    rate, num_passes = run.points_per_second()
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "points_per_s": rate,
        "op_p50_ms": float(np.percentile(reads, 50)),
        "peak_rss_mb": peak_rss_mib(),
    }
    raw_reads = run.seconds[run.kinds == READ] * 1e3
    context = {
        "reads": len(reads),
        "passes": num_passes,
        "setups": len(setup_seconds),
        "oracle_checks": run.oracle_checks,
        "kernel_ms": run.kernel_ms,
        # The tail is printed, not declared: host stalls of 5 - 30 ms hit
        # a varying share of ops and moved p99 by 33 - 71 % between
        # identical runs (see README, "Measured spread").
        "op_p99_ms": float(np.percentile(reads, 99)),
        "wall_op_p50_ms": float(np.percentile(raw_reads, 50)),
        "wall_op_p99_ms": float(np.percentile(raw_reads, 99)),
    }
    writes = run.calibrated(INSERT, DELETE) * 1e3
    compactions = run.calibrated(COMPACT)
    if len(writes):
        context["writes"] = len(writes)
        context["write_p50_ms"] = float(np.median(writes))
    if len(compactions):
        context["compactions"] = len(compactions)
        context["compact_s"] = float(np.median(compactions))
    return metrics, context
