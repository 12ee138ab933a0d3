"""Static lock discipline & runtime lock-order checks for the repro serve stack.

The serve stack shares state between dispatch threads, the micro-batcher,
background retrains and the shard fronts' admin calls.  Which lock
guards which attribute is a convention nothing in Python enforces.  This
package checks it two ways:

* ``python -m repro.analysis src/`` (also installed as ``repro-analyze``)
  runs the ``guarded-by`` rule over the tree: an attribute annotated
  ``#: guarded_by(_lock)`` (or ``#: guarded_by(_lock, writes)``) is only
  touched under ``with self._lock:``, and a method annotated
  ``#: requires(_lock)`` is only called with the lock held.  Findings
  print as text or JSON; inline ``# repro: ignore[guarded-by]`` comments
  suppress single findings, and a checked-in baseline file grandfathers
  the rest.
* :mod:`repro.analysis.sanitizer` is the runtime companion: an opt-in
  instrumented ``Lock``/``RLock`` wrapper that records acquisition order
  per thread and raises on inversions.  The test suite installs it when
  ``REPRO_SANITIZE=1``.

A rule earns its place by catching a seeded bug the tests miss; see
``DESIGN.md`` ("Static analysis & sanitizers") for that bar and the
annotation grammar.
"""

from repro.analysis.core import (
    Analyzer,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    Severity,
)
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.report import render_json, render_text

__all__ = [
    "Analyzer",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "Severity",
    "load_baseline",
    "write_baseline",
    "render_json",
    "render_text",
]
