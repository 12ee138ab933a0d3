"""``python -m repro.analysis [paths...]``: the guarded-by lock check.

Prints one ``path:line: message`` per finding, then the count.  Exits 0
when clean, 1 on findings and 2 when a file does not parse or a path
does not exist.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.guarded_by import check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Check '#: guarded_by' / '#: requires' lock annotations.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    args = parser.parse_args(argv)
    try:
        findings = check(args.paths)
    except SyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for finding in findings:
        print(f"{finding.path}:{finding.line}: {finding.message}")
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
