"""Smoke test of the end-to-end benchmark (tiny layers, a few ops).

Runs every workload once in ``--smoke`` size — untraced, then traced,
on one set-up — and checks the benchmark's own contract: the names it
emits are exactly the ones ``BENCHMARK.json`` declares, the layered
replay reproduces the untraced join results, and the replay accounts
for the op it replays.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from e2ebench import report
from e2ebench.runner import run_workload
from e2ebench.spec import BENCH_DIR, BENCHMARK_JSON, load_spec
from e2ebench.workloads import WORKLOADS

SPEC = load_spec()
RUN_PY = BENCH_DIR / "run.py"


@pytest.fixture(scope="module", params=SPEC.workloads)
def smoke(request) -> dict:
    return run_workload(
        SPEC, request.param, seed=11, seconds=0.2, mode="both", smoke=True
    )


def test_declared_workloads_are_the_implemented_ones():
    assert set(SPEC.workloads) == set(WORKLOADS)


def test_every_declared_metric_is_emitted_once(smoke):
    declared = [m.name for m in SPEC.end_to_end + SPEC.per_layer]
    assert len(set(declared)) == len(declared)
    assert list(smoke["metrics"]) == declared
    for name, metric in smoke["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == SPEC.metric(name).unit


def test_end_to_end_metrics_are_never_zero(smoke):
    for metric in SPEC.end_to_end:
        assert smoke["metrics"][metric.name]["value"] > 0, metric.name


def test_no_op_failed_the_oracle_or_the_layered_replay(smoke):
    # A replay whose counts, num_pairs or num_pip_tests differ from the
    # untraced JoinResult is recorded as a failed op, like an oracle miss.
    assert smoke["failures"] == []
    assert smoke["failed"] == 0
    assert smoke["attempted"] > 0


def test_replay_accounts_for_the_op(smoke):
    if smoke["workload"] == "sharded_hotspot_exact":
        pytest.skip("the remote path is budgeted from shipped spans")
    assert smoke["metrics"]["harness.unattributed_share"]["value"] <= 0.10


def test_refinement_is_idle_on_the_approximate_workload(smoke):
    pip_tests = smoke["metrics"]["geo.pip_tests_per_point"]["value"]
    if smoke["workload"] == "serve_uniform_approx":
        assert pip_tests == 0
        assert smoke["metrics"]["geo.refine_s"]["value"] == 0
    else:
        assert pip_tests > 0


def _result_set(points_per_s: list[float]) -> dict:
    metrics = {m.name: [1.0] * len(points_per_s) for m in SPEC.end_to_end}
    metrics["points_per_s"] = points_per_s
    return {"workloads": {name: {"metrics": metrics} for name in SPEC.workloads}}


def test_compare_flags_regressions_and_unresolved_rows(capsys):
    bound = SPEC.metric("points_per_s").bound
    steady = _result_set([100.0, 101.0, 99.0])
    assert report.compare(SPEC, steady, _result_set([98.0, 100.0, 99.0])) == 0
    slower = [v * (1.0 - 2.0 * bound) for v in (100.0, 101.0, 99.0)]
    assert report.compare(SPEC, steady, _result_set(slower)) == 1
    assert "REGRESSION" in capsys.readouterr().out
    noisy = _result_set([100.0, 100.0 * (1 + 3 * bound), 100.0 / (1 + 3 * bound)])
    assert report.compare(SPEC, steady, noisy) == 0
    assert "unresolved" in capsys.readouterr().out


def test_driver_command_line(tmp_path):
    """The last stdout line is the four-key result object; a directory
    with only the benchmark's own files exits non-zero without one."""
    command = [
        sys.executable, str(RUN_PY), "--workload", "offline_border_exact",
        "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in SPEC.end_to_end}

    bare = tmp_path / "checkout"
    shutil.copytree(
        BENCH_DIR, bare / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(BENCHMARK_JSON, bare / "BENCHMARK.json")
    command[1] = str(bare / "benchmarks" / "e2e" / "run.py")
    # The tier-1 command exports PYTHONPATH; a bare checkout has no src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, cwd=bare, env=env
    )
    assert done.returncode != 0
    assert done.stdout == ""
