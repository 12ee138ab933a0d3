"""Tests for ``repro.analysis``: the guarded-by rule, baseline, CLI, and
the sanitizer.

The rule gets triggering and non-triggering fixtures built from tiny
synthetic modules (written to ``tmp_path`` and analyzed through the
public :class:`~repro.analysis.Analyzer` API), plus suppression and
baseline coverage.  Seeded copies of real serve-stack modules check that
the rule still reports an access moved out of its lock there.  One
in-process scan asserts the analyzer runs clean over the real ``src/``
tree at HEAD, and a subprocess check covers the CLI's exit codes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Analyzer,
    Severity,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)
from repro.analysis import sanitizer
from repro.analysis.baseline import split_baselined
from repro.analysis.rules import all_rules, rules_by_name

REPO_ROOT = Path(__file__).resolve().parent.parent


def analyze(tmp_path, sources: dict[str, str], select: list[str] | None = None):
    """Write fixture modules and run the analyzer over them."""
    for rel, source in sources.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    analyzer = Analyzer(rules_by_name(select))
    project = analyzer.load([tmp_path], root=tmp_path)
    assert not analyzer.parse_errors, analyzer.parse_errors
    return analyzer.run(project)


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
    findings = analyze(tmp_path, {"box.py": GUARDED}, select=["guarded-by"])
    assert len(findings) == 1
    (finding,) = findings
    assert finding.rule == "guarded-by"
    assert "unlocked_read" in finding.symbol
    assert finding.severity == Severity.ERROR


def test_guarded_by_accepts_locked_access_and_init(tmp_path):
    clean = GUARDED.replace(
        "        def unlocked_read(self):\n            return len(self._items)",
        "",
    )
    assert clean != GUARDED
    assert analyze(tmp_path, {"box.py": clean}, select=["guarded-by"]) == []


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
    findings = analyze(tmp_path, {"pub.py": source}, select=["guarded-by"])
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
    findings = analyze(tmp_path, {"pub.py": source}, select=["guarded-by"])
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
    findings = analyze(tmp_path, {"svc.py": source}, select=["guarded-by"])
    assert len(findings) == 1
    assert "requires(_lock)" in findings[0].message
    assert "Svc.bad:call-_bump" in findings[0].symbol


def test_suppression_same_line(tmp_path):
    source = GUARDED.replace(
        "        def unlocked_read(self):\n            return len(self._items)",
        "        def unlocked_read(self):\n"
        "            return len(self._items)  # repro: ignore[guarded-by]",
    )
    assert source != GUARDED
    assert analyze(tmp_path, {"box.py": source}, select=["guarded-by"]) == []


def test_suppression_standalone_line_above(tmp_path):
    source = GUARDED.replace(
        "        def unlocked_read(self):\n            return len(self._items)",
        "        def unlocked_read(self):\n"
        "            # repro: ignore[guarded-by]\n"
        "            return len(self._items)",
    )
    assert source != GUARDED
    assert analyze(tmp_path, {"box.py": source}, select=["guarded-by"]) == []


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
    findings = analyze(tmp_path, {relpath: seeded}, select=["guarded-by"])
    assert {f.symbol for f in findings} == expected
    lines = seeded.splitlines()
    for finding in findings:
        attr = finding.symbol.split(":")[1].split("#")[0]
        assert f"self.{attr}" in lines[finding.line - 1]


# ----------------------------------------------------------------------
# Baseline and reporters
# ----------------------------------------------------------------------


def test_baseline_roundtrip_and_split(tmp_path):
    findings = analyze(tmp_path, {"box.py": GUARDED}, select=["guarded-by"])
    assert findings
    path = tmp_path / "baseline.txt"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    assert baseline == {f.fingerprint for f in findings}

    new, baselined, stale = split_baselined(findings, baseline)
    assert new == [] and baselined == findings and stale == set()

    baseline.add("guarded-by:gone.py:Gone.method:attr#1")
    new, baselined, stale = split_baselined(findings, baseline)
    assert stale == {"guarded-by:gone.py:Gone.method:attr#1"}


def test_baseline_fingerprint_survives_line_shifts(tmp_path):
    before = analyze(tmp_path / "a", {"box.py": GUARDED}, select=["guarded-by"])
    shifted = "\n\n    # a comment pushing everything down\n" + GUARDED
    after = analyze(tmp_path / "b", {"box.py": shifted}, select=["guarded-by"])
    assert before[0].fingerprint == after[0].fingerprint
    assert before[0].line != after[0].line


def test_render_json_shape(tmp_path):
    findings = analyze(tmp_path, {"box.py": GUARDED}, select=["guarded-by"])
    payload = json.loads(render_json(findings, [], []))
    assert payload["summary"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "guarded-by"
    assert "fingerprint" in payload["findings"][0]
    text = render_text(findings, [], [])
    assert "error[guarded-by]" in text


def test_rules_registry_rejects_unknown_rule():
    assert [rule.name for rule in all_rules()] == ["guarded-by"]
    with pytest.raises(KeyError):
        rules_by_name(["no-such-rule"])


# ----------------------------------------------------------------------
# Self-check: the real tree is clean at HEAD; the CLI's exit codes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def src_scan():
    """``src/`` scanned once, as ``python -m repro.analysis src/`` scans
    it from the repository root: ``(new, baselined, stale)`` against the
    checked-in baseline."""
    analyzer = Analyzer(all_rules())
    project = analyzer.load([REPO_ROOT / "src"], root=REPO_ROOT)
    assert analyzer.parse_errors == []
    baseline = load_baseline(REPO_ROOT / "analysis-baseline.txt")
    new, baselined, stale = split_baselined(analyzer.run(project), baseline)
    return new, baselined, sorted(stale)


def test_clean_on_src_at_head(src_scan):
    assert "0 error(s)" in render_text(*src_scan)


def test_json_format_on_src(src_scan):
    assert json.loads(render_json(*src_scan))["summary"]["errors"] == 0


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
    proc = _run_cli(str(bad), "--baseline", str(tmp_path / "none.txt"))
    assert proc.returncode == 1
    assert "guarded-by" in proc.stdout

    # Baselining the finding turns the run green...
    proc = _run_cli(
        str(bad), "--baseline", str(tmp_path / "base.txt"), "--write-baseline"
    )
    assert proc.returncode == 0
    proc = _run_cli(str(bad), "--baseline", str(tmp_path / "base.txt"))
    assert proc.returncode == 0
    assert "baselined" in proc.stdout

    # ...and unknown rule names are usage errors.
    proc = _run_cli(str(bad), "--select", "bogus")
    assert proc.returncode == 2


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
