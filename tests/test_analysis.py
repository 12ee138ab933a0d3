"""Tests for ``repro.analysis``: the guarded-by check, its CLI, and the
sanitizer.

The check gets triggering and non-triggering fixtures built from tiny
synthetic modules (written to ``tmp_path`` and checked through the
public :func:`~repro.analysis.check`).  Seeded copies of real
serve-stack modules check that it still reports an access moved out of
its lock there.  One in-process scan asserts the real ``src/`` tree is
clean at HEAD, and a subprocess check covers the CLI's exit codes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import check, sanitizer
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def analyze(tmp_path, sources: dict[str, str]):
    """Write fixture modules and check them."""
    for rel, source in sources.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return check([tmp_path])


# ----------------------------------------------------------------------
# guarded-by
# ----------------------------------------------------------------------

GUARDED = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []  #: guarded_by(_lock)

        def locked_read(self):
            with self._lock:
                return len(self._items)

        def unlocked_read(self):
            return len(self._items)
"""


def test_guarded_by_flags_unlocked_access(tmp_path):
    findings = analyze(tmp_path, {"box.py": GUARDED})
    assert len(findings) == 1
    (finding,) = findings
    assert finding.symbol == "Box.unlocked_read:_items#1"
    assert finding.path == (tmp_path / "box.py").as_posix()
    assert finding.line == 14


def test_guarded_by_accepts_locked_access_and_init(tmp_path):
    clean = GUARDED.replace(
        "        def unlocked_read(self):\n            return len(self._items)",
        "",
    )
    assert clean != GUARDED
    assert analyze(tmp_path, {"box.py": clean}) == []


def test_guarded_by_marker_on_the_line_above(tmp_path):
    """A ``#:`` marker alone on its line annotates the statement below."""
    source = """
        import threading

        class Svc:
            def __init__(self):
                self._lock = threading.Lock()
                #: guarded_by(_lock)
                self._state = 0

            #: requires(_lock)
            def _bump(self):
                self._state += 1

            def bad(self):
                self._bump()
                return self._state
    """
    findings = analyze(tmp_path, {"svc.py": source})
    assert [f.symbol for f in findings] == ["Svc.bad:call-_bump#1", "Svc.bad:_state#1"]


def test_guarded_by_writes_only_mode(tmp_path):
    source = """
        import threading

        class Published:
            def __init__(self):
                self._lock = threading.Lock()
                self._snapshot = {}  #: guarded_by(_lock, writes)

            def read(self):
                return dict(self._snapshot)  # lock-free snapshot: fine

            def publish(self, data):
                self._snapshot = dict(data)  # write outside the lock: flagged
    """
    findings = analyze(tmp_path, {"pub.py": source})
    assert len(findings) == 1
    assert "write to" in findings[0].message
    assert "publish" in findings[0].symbol


@pytest.mark.parametrize(
    "write",
    ["self._snapshot[key] = data", "del self._snapshot[key]", "self._snapshot[key] += data"],
    ids=["item-assignment", "item-deletion", "augmented-item-assignment"],
)
def test_guarded_by_writes_only_mode_counts_item_writes(tmp_path, write):
    """A store into the guarded container is a write of it, though the
    attribute itself is only loaded."""
    source = f"""
        import threading

        class Published:
            def __init__(self):
                self._lock = threading.Lock()
                self._snapshot = {{}}  #: guarded_by(_lock, writes)

            def read(self, key):
                return self._snapshot[key]  # lock-free read: fine

            def locked(self, key, data):
                with self._lock:
                    {write}

            def publish(self, key, data):
                {write}
    """
    findings = analyze(tmp_path, {"pub.py": source})
    assert [(f.symbol, f.message.split(" outside")[0]) for f in findings] == [
        ("Published.publish:_snapshot#1", "write to Published._snapshot")
    ]


def test_guarded_by_requires_annotation(tmp_path):
    source = """
        import threading

        class Svc:
            def __init__(self):
                self._lock = threading.Lock()
                self._state = 0  #: guarded_by(_lock)

            def _bump(self):  #: requires(_lock)
                self._state += 1  # body counts as locked

            def good(self):
                with self._lock:
                    self._bump()

            def bad(self):
                self._bump()  # requires-annotated callee without the lock
    """
    findings = analyze(tmp_path, {"svc.py": source})
    assert len(findings) == 1
    assert "requires(_lock)" in findings[0].message
    assert "Svc.bad:call-_bump" in findings[0].symbol


# ----------------------------------------------------------------------
# guarded-by on the real serve stack: one access moved out of its lock
# ----------------------------------------------------------------------

#: (module under src/, text of the access under its lock, the same code
#: with the access moved after the ``with`` block, expected symbols).
SEEDED_REAL_SITES = {
    "HotCellCache.lookup": (
        "repro/serve/cache.py",
        "            leaf_ids = self._leaf_ids[slot]\n"
        "            values = self._values[slot]\n"
        "            self._ticks[slot[hit]] = tick\n"
        "            missing = np.flatnonzero(~hit)\n",
        "            self._ticks[slot[hit]] = tick\n"
        "            missing = np.flatnonzero(~hit)\n"
        "        leaf_ids = self._leaf_ids[slot]\n"
        "        values = self._values[slot]\n"
        "        with self._lock:\n",
        {"HotCellCache.lookup:_leaf_ids#1", "HotCellCache.lookup:_values#1"},
    ),
    "ShardedJoinService.close": (
        "repro/serve/sharded.py",
        "            self._shutdown()\n"
        "            self._plane_bytes = {}\n"
        "            self._set_snapshot_gauges(())\n",
        "            self._shutdown()\n"
        "            self._set_snapshot_gauges(())\n"
        "        self._plane_bytes = {}\n",
        {"ShardedJoinService.close:_plane_bytes#1"},
    ),
    "AdaptiveController._retrain_worker": (
        "repro/core/adaptive.py",
        "                self._last_version[layer] = version\n"
        "                self._last_training_ids[layer] = training_ids\n",
        "                self._last_version[layer] = version\n"
        "            self._last_training_ids[layer] = training_ids\n",
        {"AdaptiveController._retrain_worker:_last_training_ids#1"},
    ),
    "DynamicPolygonIndex.num_cells": (
        "repro/core/dynamic.py",
        "        with self._lock:\n"
        "            return self._base.num_cells + self._delta_covering.num_cells\n",
        "        return self._base.num_cells + self._delta_covering.num_cells\n",
        {"DynamicPolygonIndex.num_cells:_delta_covering#1"},
    ),
    "JoinService._table_for": (
        "repro/serve/service.py",
        "                self._generations[name] = (view.version, table)\n"
        "            return table\n",
        "            else:\n"
        "                return table\n"
        "        self._generations = {**self._generations, name: (view.version, table)}\n"
        "        return table\n",
        {"JoinService._table_for:_generations#1"},
    ),
    # The item assignment the copy-on-write replacement above stands in
    # for: a subscript store is a write of the guarded attribute.
    "JoinService._table_for (item)": (
        "repro/serve/service.py",
        "                self._generations[name] = (view.version, table)\n"
        "            return table\n",
        "            else:\n"
        "                return table\n"
        "        self._generations[name] = (view.version, table)\n"
        "        return table\n",
        {"JoinService._table_for:_generations#1"},
    ),
    "MetricsRegistry.collect": (
        "repro/obs/metrics.py",
        "        with self._lock:\n"
        "            return list(self._metrics.values())\n",
        "        return list(self._metrics.values())\n",
        {"MetricsRegistry.collect:_metrics#1"},
    ),
}


@pytest.mark.parametrize("site", sorted(SEEDED_REAL_SITES))
def test_guarded_by_reports_an_access_moved_out_of_its_lock(tmp_path, site):
    """A real module, copied with one guarded access moved past its
    ``with self._lock:``, yields exactly that access's finding(s) — so
    dropping the module's annotation, or breaking the rule, shows here."""
    relpath, locked, moved, expected = SEEDED_REAL_SITES[site]
    source = (REPO_ROOT / "src" / relpath).read_text()
    assert source.count(locked) == 1, f"seed site for {site} moved"
    seeded = source.replace(locked, moved)
    findings = analyze(tmp_path, {relpath: seeded})
    assert {f.symbol for f in findings} == expected
    lines = seeded.splitlines()
    for finding in findings:
        attr = finding.symbol.split(":")[1].split("#")[0]
        assert f"self.{attr}" in lines[finding.line - 1]


# ----------------------------------------------------------------------
# Self-check: the real tree is clean at HEAD; the CLI's exit codes
# ----------------------------------------------------------------------


def test_clean_on_src_at_head():
    """``src/`` checked as ``python -m repro.analysis src/`` checks it."""
    assert check([REPO_ROOT / "src"]) == []


@pytest.mark.parametrize("placement", ["same-line", "line-above"])
def test_retired_ignore_comment_does_not_suppress(tmp_path, placement):
    """``# repro: ignore[...]`` is an ordinary comment: a real finding is
    fixed by holding the lock, not hidden."""
    body, access = textwrap.dedent(GUARDED).rstrip("\n").rsplit("\n", 1)
    comment = "# repro: ignore[guarded-by]"
    if placement == "same-line":
        source = f"{body}\n{access}  {comment}\n"
    else:
        indent = access[: len(access) - len(access.lstrip())]
        source = f"{body}\n{indent}{comment}\n{access}\n"
    findings = analyze(tmp_path, {"box.py": source})
    assert [f.symbol for f in findings] == ["Box.unlocked_read:_items#1"]


def test_check_reports_a_file_once_across_overlapping_paths(tmp_path):
    analyze(tmp_path, {"a/box.py": GUARDED, "b/box.py": GUARDED})
    findings = check([tmp_path / "b", tmp_path, tmp_path / "a" / "box.py"])
    assert [(f.path, f.line) for f in findings] == [
        ((tmp_path / "a" / "box.py").as_posix(), 14),
        ((tmp_path / "b" / "box.py").as_posix(), 14),
    ]


def test_check_raises_syntax_error_naming_the_file(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    with pytest.raises(SyntaxError) as exc_info:
        check([tmp_path])
    assert exc_info.value.filename == str(broken)


def test_check_rejects_a_missing_path(tmp_path):
    """A mistyped path is an error, not a tree with nothing to report."""
    with pytest.raises(FileNotFoundError, match="no_such_dir"):
        check([tmp_path / "no_such_dir"])


def _run_cli(*args: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_exit_codes_on_fixture(tmp_path):
    bad = tmp_path / "box.py"
    bad.write_text(textwrap.dedent(GUARDED))
    proc = _run_cli(str(bad))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"{bad.as_posix()}:14: read of Box._items outside 'with self._lock:' "
        "(declared '#: guarded_by(_lock)')",
        "1 finding(s)",
    ]

    proc = _run_cli("src/")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0 finding(s)"]

    # A file that does not parse is an error of its own, not a finding.
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    proc = _run_cli(str(bad), str(broken))
    assert proc.returncode == 2
    assert "broken.py" in proc.stderr


def test_cli_takes_only_paths(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == "usage: python -m repro.analysis [-h] [paths ...]"


@pytest.mark.parametrize(
    "option",
    [
        "--format=json",
        "--baseline=x.txt",
        "--write-baseline",
        "--select=guarded-by",
        "--strict",
        "--list-rules",
    ],
)
def test_cli_retired_options_are_usage_errors(option):
    with pytest.raises(SystemExit) as exit_info:
        main([option, "src"])
    assert exit_info.value.code == 2


def test_cli_missing_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "no_such_dir"
    assert main([str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(missing) in captured.err


def test_cli_default_path_is_src(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main([]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 finding(s)"]


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------


@pytest.fixture()
def clean_sanitizer():
    sanitizer.reset()
    yield
    sanitizer.reset()
    sanitizer.uninstall()


def test_sanitizer_detects_lock_order_inversion(clean_sanitizer):
    lock_a = sanitizer.SanitizedLock("repro/serve/a.py:1")
    lock_b = sanitizer.SanitizedLock("repro/serve/b.py:1")
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with pytest.raises(sanitizer.LockOrderError, match="inversion"):
            lock_a.acquire()


def test_sanitizer_consistent_order_is_silent(clean_sanitizer):
    lock_a = sanitizer.SanitizedLock("repro/serve/a.py:1")
    lock_b = sanitizer.SanitizedLock("repro/serve/b.py:1")
    for _ in range(3):
        with lock_a:
            with lock_b:
                pass
    assert ("repro/serve/a.py:1", "repro/serve/b.py:1") in list(
        sanitizer.observed_edges()
    )


def test_sanitizer_flags_plain_lock_self_deadlock(clean_sanitizer):
    lock = sanitizer.SanitizedLock("repro/serve/a.py:1")
    with lock:
        with pytest.raises(sanitizer.LockOrderError, match="self-deadlock"):
            lock.acquire()


def test_sanitizer_rlock_reentry_is_fine(clean_sanitizer):
    rlock = sanitizer.SanitizedRLock("repro/core/a.py:1")
    with rlock:
        with rlock:
            assert rlock.locked() or True  # locked() absent before 3.12
    assert list(sanitizer.observed_edges()) == []


def test_sanitizer_install_is_scoped_and_idempotent(clean_sanitizer):
    import threading

    assert not sanitizer.is_installed()
    sanitizer.install()
    sanitizer.install()  # idempotent
    assert sanitizer.is_installed()
    # This file is not under /repro/, so the factory hands back a
    # vanilla lock: non-repro callers are never instrumented.
    lock = threading.Lock()
    assert not isinstance(lock, sanitizer.SanitizedLock)
    sanitizer.uninstall()
    assert not sanitizer.is_installed()
    assert threading.Lock is sanitizer._real_lock
