"""Tests for ``repro.analysis``: rules, baseline, CLI, and the sanitizer.

Each rule gets a triggering fixture and a non-triggering fixture built
from tiny synthetic modules (written to ``tmp_path`` and analyzed
through the public :class:`~repro.analysis.Analyzer` API), plus
suppression and baseline coverage.  One in-process scan asserts the
analyzer runs clean over the real ``src/`` tree at HEAD, and a subprocess
check covers the CLI's exit codes.
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
# shm-lifecycle
# ----------------------------------------------------------------------


def test_shm_lifecycle_flags_leaked_create(tmp_path):
    source = """
        from multiprocessing.shared_memory import SharedMemory

        def leak(name):
            shm = SharedMemory(name=name, create=True, size=64)
            data = bytes(12)
            return data
    """
    findings = analyze(tmp_path, {"seg.py": source}, select=["shm-lifecycle"])
    assert len(findings) == 1
    assert "unlink" in findings[0].message


def test_shm_lifecycle_accepts_release_and_transfer(tmp_path):
    source = """
        from multiprocessing.shared_memory import SharedMemory

        def owned(name):
            shm = SharedMemory(name=name, create=True, size=64)
            try:
                return bytes(shm.buf[:4])
            finally:
                shm.unlink()

        def transferred(name):
            return SharedMemory(name=name)

        class Holder:
            def __init__(self, name):
                self._shm = SharedMemory(name=name)

            def close(self):
                self._shm.close()
    """
    assert analyze(tmp_path, {"seg.py": source}, select=["shm-lifecycle"]) == []


def test_shm_lifecycle_flags_unreleased_attach_attr(tmp_path):
    source = """
        from multiprocessing.shared_memory import SharedMemory

        class Holder:
            def __init__(self, name):
                self._shm = SharedMemory(name=name)

            def read(self):
                return bytes(self._shm.buf[:4])
    """
    findings = analyze(tmp_path, {"seg.py": source}, select=["shm-lifecycle"])
    assert len(findings) == 1
    assert "close" in findings[0].message


# ----------------------------------------------------------------------
# spawn-safety
# ----------------------------------------------------------------------


def test_spawn_safety_flags_direct_and_transitive_hazards(tmp_path):
    source = """
        import threading
        from collections import deque
        from dataclasses import dataclass

        class Inner:
            def __init__(self):
                self._lock = threading.Lock()

        @dataclass
        class Payload:  #: spawn_payload
            name: str
            inner: "Inner" = None

        class RingPayload:  #: spawn_payload
            ring = deque()
    """
    findings = analyze(tmp_path, {"payload.py": source}, select=["spawn-safety"])
    messages = "\n".join(f.message for f in findings)
    assert "Payload -> Inner" in messages  # lock reached through a field type
    assert "ring buffer" in messages  # deque stored as a class default
    assert len(findings) == 2


def test_spawn_safety_accepts_inert_payload(tmp_path):
    source = """
        import threading
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Config:  #: spawn_payload
            name: str
            size: int = 0

        class Unmarked:
            def __init__(self):
                self._lock = threading.Lock()  # fine: not a payload root
    """
    assert analyze(tmp_path, {"payload.py": source}, select=["spawn-safety"]) == []


# ----------------------------------------------------------------------
# flat-contract
# ----------------------------------------------------------------------

FLAT_SPEC = """
    import numpy as np

    FLAT_BUFFER_SPEC = {
        "alpha": "<u8",
        "beta": "<f8",
    }
    _ALIGN = 64

    def pack(a, b):
        buffers = {
            "alpha": a,
            "beta": b,
        }
        return buffers

    def read(buffers):
        return buffers["alpha"], buffers["beta"]
"""


def test_flat_contract_clean_spec(tmp_path):
    assert analyze(tmp_path, {"flat.py": FLAT_SPEC}, select=["flat-contract"]) == []


def test_flat_contract_flags_unspecced_pack_and_read(tmp_path):
    source = FLAT_SPEC.replace(
        '"beta": b,\n        }', '"beta": b,\n            "gamma": b,\n        }'
    ).replace(
        'buffers["alpha"], buffers["beta"]',
        'buffers["alpha"], buffers["delta"]',
    )
    findings = analyze(tmp_path, {"flat.py": source}, select=["flat-contract"])
    symbols = {f.symbol for f in findings}
    assert "pack:gamma" in symbols  # packed but undeclared
    assert "subscript:delta" in symbols  # read but undeclared
    # beta is now packed-only-referenced; it is still referenced, so the
    # only other finding permitted is none at all.
    assert len(findings) == 2


def test_flat_contract_flags_dtype_drift_and_alignment(tmp_path):
    source = FLAT_SPEC.replace("_ALIGN = 64", "_ALIGN = 32").replace(
        "def pack(a, b):",
        "def pack(a, b):\n        a = np.zeros(4, dtype=np.int64)",
    )
    findings = analyze(tmp_path, {"flat.py": source}, select=["flat-contract"])
    symbols = {f.symbol for f in findings}
    assert "_ALIGN" in symbols
    assert "dtype:alpha" in symbols  # packed <i8, spec says <u8


FLAT_SPREAD_SPEC = """
    import numpy as np

    GEOMETRY_BUFFERS = {
        "alpha": "<u8",
    }
    COVERAGE_BUFFERS = {
        "beta": "<f8",
    }
    FLAT_BUFFER_SPEC = {
        **GEOMETRY_BUFFERS,
        **COVERAGE_BUFFERS,
    }
    _ALIGN = 64

    def pack(a, b):
        buffers = {
            "alpha": a,
            "beta": b,
        }
        return buffers

    def read(buffers):
        return buffers["alpha"], buffers["beta"]
"""


def test_flat_contract_resolves_spread_merged_sections(tmp_path):
    # The two-layer spec shape: FLAT_BUFFER_SPEC = {**GEOM, **COVERAGE}.
    findings = analyze(
        tmp_path, {"flat.py": FLAT_SPREAD_SPEC}, select=["flat-contract"]
    )
    assert findings == []


def test_flat_contract_spread_sections_still_check_packs(tmp_path):
    source = FLAT_SPREAD_SPEC.replace(
        '"beta": b,\n        }', '"beta": b,\n            "gamma": b,\n        }'
    )
    findings = analyze(
        tmp_path, {"flat.py": source}, select=["flat-contract"]
    )
    assert {f.symbol for f in findings} == {"pack:gamma"}


def test_flat_contract_flags_overlapping_sections(tmp_path):
    source = FLAT_SPREAD_SPEC.replace(
        '"beta": "<f8",', '"beta": "<f8",\n        "alpha": "<u8",'
    )
    findings = analyze(
        tmp_path, {"flat.py": source}, select=["flat-contract"]
    )
    assert any(f.symbol == "overlap:alpha" for f in findings)


def test_flat_contract_warns_on_stale_spec_entry(tmp_path):
    source = FLAT_SPEC.replace(
        '"beta": "<f8",', '"beta": "<f8",\n        "orphan": "<u4",'
    )
    findings = analyze(tmp_path, {"flat.py": source}, select=["flat-contract"])
    assert len(findings) == 1
    assert findings[0].symbol == "stale:orphan"
    assert findings[0].severity == Severity.WARNING


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------


def test_lock_order_flags_inverted_acquisitions(tmp_path):
    source = """
        import threading

        _mod_lock = threading.Lock()

        class Svc:
            def __init__(self):
                self._lock = threading.Lock()

            def forward(self):
                with self._lock:
                    with _mod_lock:
                        pass

            def backward(self):
                with _mod_lock:
                    with self._lock:
                        pass
    """
    findings = analyze(tmp_path, {"svc.py": source}, select=["lock-order"])
    assert len(findings) == 1
    assert "cycle" in findings[0].message.lower()
    assert "Svc._lock" in findings[0].message


def test_lock_order_accepts_consistent_order_and_calls(tmp_path):
    source = """
        import threading

        class Child:
            def __init__(self):
                self._lock = threading.Lock()

            def poke(self):
                with self._lock:
                    pass

        class Parent:
            def __init__(self):
                self._lock = threading.Lock()
                self._child = Child()

            def forward(self):
                with self._lock:
                    self._child.poke()

            def also_forward(self):
                with self._lock:
                    with self._child._lock:
                        pass
    """
    assert analyze(tmp_path, {"svc.py": source}, select=["lock-order"]) == []


def test_lock_order_flags_self_deadlock_on_plain_lock(tmp_path):
    source = """
        import threading

        class Svc:
            def __init__(self):
                self._lock = threading.Lock()

            def oops(self):
                with self._lock:
                    with self._lock:
                        pass
    """
    findings = analyze(tmp_path, {"svc.py": source}, select=["lock-order"])
    assert len(findings) == 1
    assert "self-deadlock" in findings[0].message


def test_lock_order_rlock_reentry_is_fine(tmp_path):
    source = """
        import threading

        class Svc:
            def __init__(self):
                self._lock = threading.RLock()

            def fine(self):
                with self._lock:
                    with self._lock:
                        pass
    """
    assert analyze(tmp_path, {"svc.py": source}, select=["lock-order"]) == []


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
    assert {rule.name for rule in all_rules()} == {
        "guarded-by",
        "shm-lifecycle",
        "spawn-safety",
        "flat-contract",
        "lock-order",
    }
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
