#!/usr/bin/env python3
"""End-to-end benchmark of the point-polygon join stack (see README.md).

One workload, as the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload serve_uniform_approx \\
        --seed 11 --seconds 12 --trace 0

The full set (each workload in its own process, untraced then traced),
optionally repeated and saved::

    python3 benchmarks/e2e/run.py --workload all --seed 11 --out A.json

Two saved sets against the bounds in BENCHMARK.json::

    python3 benchmarks/e2e/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the last stdout line is the result."""
    from e2ebench import report
    from e2ebench.runner import run_workload
    from e2ebench.spec import load_spec

    full = run_workload(
        load_spec(), args.workload, args.seed, args.seconds, args.trace,
        smoke=args.smoke, spans_path=args.spans,
    )
    report.print_run(full)
    print(report.REPORT_PREFIX + json.dumps(full))
    print(
        json.dumps(
            {
                "correct": full["failed"] == 0,
                "attempted": full["attempted"],
                "failed": full["failed"],
                "metrics": full["metrics"],
            }
        )
    )
    return 0 if full["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process, ``--runs`` times over."""
    from e2ebench import report
    from e2ebench.spec import load_spec

    spec = load_spec()
    result_set = report.new_set(spec, args.seed, args.seconds, args.runs)
    exit_code = 0
    for _ in range(args.runs):
        for name in spec.workloads:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "both",
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            exit_code = exit_code or done.returncode
            lines = done.stdout.splitlines()
            carried = [line for line in lines if line.startswith(report.REPORT_PREFIX)]
            print("\n".join(lines[:-2]), flush=True)
            if carried:
                report.add_run(
                    result_set, json.loads(carried[0][len(report.REPORT_PREFIX):])
                )
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(result_set, indent=1) + "\n", encoding="utf-8"
        )
    if args.record_fingerprints:
        report.write_fingerprints(
            {
                name: entry["fingerprints"]
                for name, entry in result_set["workloads"].items()
            }
        )
    return exit_code


def run_compare(args: argparse.Namespace) -> int:
    from e2ebench import report
    from e2ebench.spec import load_spec

    sets = [
        json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        for path in (args.base, args.new)
    ]
    return report.compare(load_spec(), *sets)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return run_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics from a traced run; "
                             "both: one set-up, then 0 and 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny layers and pools (seconds, not minutes)")
    parser.add_argument("--spans", metavar="PATH",
                        help="write the traced run's spans here as JSON lines")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: repeat the set this often")
    parser.add_argument("--out", metavar="PATH",
                        help="with --workload all: save the set for 'compare'")
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="with --workload all: rewrite fingerprints.json")
    args = parser.parse_args(argv)
    try:
        from e2ebench.spec import load_spec
        from e2ebench.workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec().run_seconds)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    return run_one(args)


if __name__ == "__main__":  # shard workers are spawned: they re-import this
    sys.exit(main(sys.argv[1:]))
