"""CLI for the experiment harness.

Usage::

    python -m repro.bench all                # every table and figure
    python -m repro.bench table1 fig7        # a subset
    python -m repro.bench all --quick        # smoke-scale run

Results print as paper-style text tables and are also written to
``results/<experiment>.txt`` and ``.csv``, beside one ``RUN.txt`` that
records where they came from (commit, host, versions, preset, wall time).
``results/paper/quick/`` and ``results/paper/full/`` are such runs,
checked in.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

from repro.bench import fig7, fig8, fig9, fig10, fig11
from repro.bench import ablations, adapt_bench, obs_bench
from repro.bench import table1, table2, table3, table4, table5, training_bench
from repro.bench.config import BenchConfig
from repro.bench.workbench import Workbench

RUNNERS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": training_bench.run_table6,
    "table7": training_bench.run_table7,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "ablations": ablations.run,
    "adapt": adapt_bench.run,
    "obs": obs_bench.run,
}


def _run_record(preset: str, names: list[str], wall_seconds: float) -> str:
    """``RUN.txt``: where one invocation's tables came from."""
    try:
        # The checkout's bare sha even where tags exist, ``-dirty`` when
        # tracked files differ; ``unknown`` outside a git checkout.
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"],
            cwd=pathlib.Path(__file__).parent, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = ""
    fields = {
        "git": git or "unknown",
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "preset": preset,
        "experiments": " ".join(names),
        "wall_seconds": f"{wall_seconds:.1f}",
    }
    return "".join(f"{key}: {value}\n" for key, value in fields.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(RUNNERS)}) or 'all'",
    )
    parser.add_argument(
        "--quick", "--smoke", dest="quick", action="store_true",
        help="smoke-scale run",
    )
    parser.add_argument(
        "--results-dir", default="results", help="output directory (default: results/)"
    )
    args = parser.parse_args(argv)

    names = list(RUNNERS) if "all" in args.experiments else args.experiments
    unknown = [name for name in names if name not in RUNNERS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    workbench = Workbench(BenchConfig.quick() if args.quick else BenchConfig())
    results_dir = pathlib.Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)

    run_started = time.perf_counter()
    for name in names:
        started = time.perf_counter()
        for result in RUNNERS[name](workbench):
            text = result.to_text()
            print()
            print(text)
            (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
            (results_dir / f"{result.experiment_id}.csv").write_text(result.to_csv())
        elapsed = time.perf_counter() - started
        print(f"[{name} finished in {elapsed:.1f}s]")
    preset = "quick" if args.quick else "full"
    wall_seconds = time.perf_counter() - run_started
    (results_dir / "RUN.txt").write_text(_run_record(preset, names, wall_seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
