"""Reports: fingerprint checks, printing, set files and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess

import numpy as np

from e2ebench.spec import (
    DEFAULT_SEED,
    FINGERPRINTS_JSON,
    REPO_ROOT,
    Metric,
    Spec,
)

#: Prefix of the stdout line that carries one run's full report as JSON
#: (the last line is reserved for the driver's four-key result object).
REPORT_PREFIX = "e2e-report "


def environment() -> dict[str, str]:
    """What input fingerprints depend on besides the seed."""
    import scipy

    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def host() -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {"git_sha": sha, "cores": os.cpu_count(), **environment()}


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def check_fingerprints(
    workload: str, seed: int, smoke: bool, found: dict[str, str]
) -> tuple[str, list[str]]:
    """Compare a run's fingerprints with the checked-in ones.

    Returns a status (``ok`` / ``mismatch`` / ``unchecked: why``) and the
    names that differ.  Only the default seed has stored values, and
    they only bind under the library versions they were recorded with:
    a different numpy or scipy may legitimately generate other floats.
    """
    if smoke or seed != DEFAULT_SEED:
        return "unchecked: stored for the full run at seed %d only" % DEFAULT_SEED, []
    stored = json.loads(FINGERPRINTS_JSON.read_text(encoding="utf-8"))
    if stored["environment"] != environment():
        return "unchecked: recorded under another environment", []
    expected = stored["workloads"].get(workload, {})
    differing = [
        name for name, value in found.items() if expected.get(name) != value
    ]
    return ("mismatch" if differing else "ok"), differing


def write_fingerprints(by_workload: dict[str, dict[str, str]]) -> None:
    FINGERPRINTS_JSON.write_text(
        json.dumps(
            {
                "seed": DEFAULT_SEED,
                "environment": environment(),
                "workloads": by_workload,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def metric_objects(spec: Spec, values: dict[str, float]) -> dict[str, dict]:
    """``{name: {"value": v, "unit": u}}``, in declared order, every
    digit kept; a value without a declaration is a harness bug."""
    declared = spec.end_to_end + spec.per_layer
    undeclared = set(values) - {metric.name for metric in declared}
    if undeclared:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(undeclared)}")
    return {
        metric.name: {"value": float(values[metric.name]), "unit": metric.unit}
        for metric in declared
        if metric.name in values
    }


def print_run(report: dict) -> None:
    """Every metric by name with its unit, then context and fingerprints."""
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"seconds {report['seconds']}  trace {report['trace']}"
        + ("  (smoke)" if report["smoke"] else "")
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in report["context"].items():
        print(f"  ({name} = {value:.6g})")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  failed_share {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    for message in report["failures"]:
        print(f"  FAILED: {message}")
    for name, value in report["fingerprints"].items():
        print(f"  fingerprint {name:<9} {value}")
    print(f"  fingerprints: {report['fingerprint_status']}")


# ----------------------------------------------------------------------
# Sets of runs and their comparison
# ----------------------------------------------------------------------


def new_set(spec: Spec, seed: int, seconds: float, runs: int) -> dict:
    return {
        "host": host(),
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "workloads": {
            name: {"metrics": {}, "context": {}, "fingerprints": {}}
            for name in spec.workloads
        },
    }


def add_run(result_set: dict, report: dict) -> None:
    """Append one run's values: every metric keeps one value per run."""
    entry = result_set["workloads"][report["workload"]]
    for name, metric in report["metrics"].items():
        entry["metrics"].setdefault(name, []).append(metric["value"])
    entry["context"] = report["context"]
    entry["fingerprints"] = report["fingerprints"]


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (needs 3+ runs)."""
    if len(values) < 3:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def worsening(metric: Metric, base: float, new: float) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def compare(spec: Spec, set_a: dict, set_b: dict) -> int:
    """Row per workload x end-to-end metric; returns the exit code.

    A row regresses when B's median is worse than A's by more than the
    metric's bound.  When either side's run-to-run spread exceeds the
    bound the row is ``unresolved`` — not ``ok`` — unless every run of B
    reads better than every run of A.  ``setup_s`` is exempt from the
    spread rule, as it is in the benchmark driver's acceptance check: a
    20 s index build is one wall-clock sample per run.
    """
    header = (
        f"{'workload':<24}{'metric':<14}{'base':>14}{'new':>14}"
        f"{'new/base':>10}{'bound':>7}{'spread':>8}  verdict"
    )
    print(header)
    regressions = unresolved = 0
    for workload in spec.workloads:
        for metric in spec.end_to_end:
            values_a = set_a["workloads"][workload]["metrics"][metric.name]
            values_b = set_b["workloads"][workload]["metrics"][metric.name]
            base = statistics.median(values_a)
            new = statistics.median(values_b)
            spreads = [s for s in (spread(values_a), spread(values_b)) if s is not None]
            widest = max(spreads) if spreads else None
            worse = worsening(metric, base, new)
            if metric.better == "lower":
                all_better = max(values_b) < min(values_a)
            else:
                all_better = min(values_b) > max(values_a)
            noisy = (
                widest is not None
                and widest > metric.bound
                and metric.name != "setup_s"
            )
            if noisy and not all_better:
                verdict = "unresolved"
                unresolved += 1
            elif worse > metric.bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            shown = "n/a" if widest is None else f"{widest:.3f}"
            print(
                f"{workload:<24}{metric.name:<14}{base:>14.6g}{new:>14.6g}"
                f"{new / base:>10.3f}{metric.bound:>7.2f}{shown:>8}  {verdict}"
            )
    print(f"{regressions} regressions, {unresolved} unresolved")
    return 1 if regressions else 0
