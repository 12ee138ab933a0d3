"""Static lock discipline & runtime lock-order checks for the repro serve stack.

The serve stack shares state between dispatch threads, the micro-batcher,
background retrains and the shard fronts' admin calls.  Which lock
guards which attribute is a convention nothing in Python enforces.  This
package checks it two ways:

* :mod:`repro.analysis.guarded_by` (``python -m repro.analysis src/``)
  is the one static check: an attribute annotated ``#: guarded_by(_lock)``
  (or ``#: guarded_by(_lock, writes)``) is only touched under
  ``with self._lock:``, and a method annotated ``#: requires(_lock)`` is
  only called with the lock held.  :func:`check` returns the findings;
  the fix for one is to hold the lock or to use ``writes`` mode.
* :mod:`repro.analysis.sanitizer` is the runtime companion: an opt-in
  instrumented ``Lock``/``RLock`` wrapper that records acquisition order
  per thread and raises on inversions.  The test suite installs it when
  ``REPRO_SANITIZE=1``.

A new check earns its place by catching a seeded bug the tests miss; see
``DESIGN.md`` ("Static analysis & sanitizers") for that bar and the
annotation grammar.
"""

from repro.analysis.guarded_by import Finding, check

__all__ = ["Finding", "check"]
