"""The benchmark's declared contract, read from ``BENCHMARK.json``."""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

#: benchmarks/e2e/ — the directory that holds the whole benchmark.
BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
FINGERPRINTS_JSON = BENCH_DIR / "fingerprints.json"

#: The seed whose input and result fingerprints are checked in.
DEFAULT_SEED = 11


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end metrics only


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]

    def metric(self, name: str) -> Metric:
        for metric in self.end_to_end + self.per_layer:
            if metric.name == name:
                return metric
        raise KeyError(name)


def load_spec() -> Spec:
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return Spec(
        run_seconds=int(doc["run_seconds"]),
        workloads=tuple(w["name"] for w in doc["workloads"]),
        end_to_end=tuple(Metric(**m) for m in doc["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in doc["per_layer"]),
    )
