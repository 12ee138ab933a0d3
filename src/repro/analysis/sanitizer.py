"""Runtime lock-order sanitizer: instrumented locks that catch inversions.

Lock ordering is checked at test time, where callbacks, dynamic
dispatch and cross-object protocols are resolved by running them: with
``REPRO_SANITIZE=1`` the test suite (see ``tests/conftest.py``) calls
:func:`install`, which replaces ``threading.Lock`` and
``threading.RLock`` with factories that hand *repro* code instrumented
wrappers while stdlib and third-party callers keep vanilla locks
(decided by the caller's source file at construction time, so
``threading.Condition()``'s internal lock and pytest's machinery are
never instrumented).

Every wrapper records, per thread, the stack of locks currently held
and, globally, the acquisition-order edges ever observed — keyed by the
lock's *creation site* so all instances of one class share a node.  On
each acquisition the sanitizer checks whether the reverse ordering was
ever recorded and raises :class:`LockOrderError` with both witness
sites instead of deadlocking nondeterministically in production.
Re-entrant acquisition of an ``RLock`` is fine; re-entrant acquisition
of a plain ``Lock`` raises immediately (that is a guaranteed
self-deadlock that would otherwise hang the suite).

The instrumentation is deliberately simple — one global edge graph, no
per-instance ordering — so a run's verdict is deterministic for a given
interleaving of *first* acquisitions, and false negatives only come
from paths the tests never execute.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Iterator

__all__ = [
    "LockOrderError",
    "SanitizedLock",
    "SanitizedRLock",
    "install",
    "uninstall",
    "is_installed",
    "reset",
]


class LockOrderError(RuntimeError):
    """Raised when an acquisition inverts a previously recorded order."""


_real_lock = threading.Lock  # saved at import; rebound by install/uninstall
_real_rlock = threading.RLock
_graph_guard = _real_lock()
# site -> set of sites acquired while it was held (the observed order).
_edges: dict[str, set[str]] = {}
# (held_site, new_site) -> human-readable witness of the first observation.
_witness: dict[tuple[str, str], str] = {}
_held = threading.local()
_installed = False


def _held_stack() -> list:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


def _reachable(start: str, goal: str) -> bool:
    """Is ``goal`` reachable from ``start`` in the recorded order graph?"""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        for nxt in _edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _note_acquisition(new_site: str) -> None:
    """Record edges held -> new and raise on an inversion."""
    stack = _held_stack()
    held_sites = {entry.site for entry in stack}
    if not held_sites:
        return
    with _graph_guard:
        for held_site in held_sites:
            if held_site == new_site:
                continue
            if _reachable(new_site, held_site):
                order = _witness.get((new_site, held_site), "earlier in this run")
                raise LockOrderError(
                    f"lock-order inversion: acquiring {new_site} while "
                    f"holding {held_site}, but the opposite order "
                    f"({new_site} before {held_site}) was recorded {order}"
                )
        for held_site in held_sites:
            if held_site == new_site:
                continue
            _edges.setdefault(held_site, set()).add(new_site)
            _witness.setdefault(
                (held_site, new_site),
                f"(first seen on thread {threading.current_thread().name})",
            )


class _HeldEntry:
    __slots__ = ("site", "lock_id")

    def __init__(self, site: str, lock_id: int):
        self.site = site
        self.lock_id = lock_id


class SanitizedLock:
    """A non-reentrant lock that participates in order tracking."""

    _reentrant = False

    def __init__(self, site: str):
        self._lock = _real_lock()
        self.site = site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _held_stack()
        if not self._reentrant and any(e.lock_id == id(self) for e in stack):
            raise LockOrderError(
                f"self-deadlock: thread {threading.current_thread().name} "
                f"re-acquiring non-reentrant lock {self.site} it already holds"
            )
        if blocking:
            _note_acquisition(self.site)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            stack.append(_HeldEntry(self.site, id(self)))
        return acquired

    def release(self) -> None:
        stack = _held_stack()
        for pos in range(len(stack) - 1, -1, -1):
            if stack[pos].lock_id == id(self):
                del stack[pos]
                break
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class SanitizedRLock(SanitizedLock):
    """Reentrant variant: same-thread reacquisition records nothing."""

    _reentrant = True

    def __init__(self, site: str):
        self._lock = _real_rlock()
        self.site = site

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _held_stack()
        reentry = any(e.lock_id == id(self) for e in stack)
        if blocking and not reentry:
            _note_acquisition(self.site)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            stack.append(_HeldEntry(self.site, id(self)))
        return acquired

    def locked(self) -> bool:  # RLock has no locked() before 3.12
        locked = getattr(self._lock, "locked", None)
        return bool(locked()) if locked is not None else False


def _creation_site(depth: int = 2) -> str | None:
    """Caller's ``file:line`` when the caller is repro code, else None."""
    frame = sys._getframe(depth)
    filename = frame.f_code.co_filename.replace("\\", "/")
    if "/repro/" not in filename or "/repro/analysis/" in filename:
        return None
    tail = filename[filename.rindex("/repro/") + 1 :]
    return f"{tail}:{frame.f_lineno}"


def _lock_factory():
    site = _creation_site()
    if site is None:
        return _real_lock()
    return SanitizedLock(site)


def _rlock_factory():
    site = _creation_site()
    if site is None:
        return _real_rlock()
    return SanitizedRLock(site)


def install() -> None:
    """Patch ``threading.Lock``/``RLock`` to hand repro code sanitized locks.

    Idempotent.  Locks created before installation stay vanilla, so
    install as early as possible (the test suite does it in
    ``pytest_configure``, before any ``repro.serve``/``repro.core``
    module is imported).
    """
    global _installed
    if _installed:
        return
    threading.Lock = _lock_factory
    threading.RLock = _rlock_factory
    _installed = True


def uninstall() -> None:
    global _installed
    if not _installed:
        return
    threading.Lock = _real_lock
    threading.RLock = _real_rlock
    _installed = False


def is_installed() -> bool:
    return _installed


def reset() -> None:
    """Drop the recorded order graph (test isolation)."""
    with _graph_guard:
        _edges.clear()
        _witness.clear()


def observed_edges() -> Iterator[tuple[str, str]]:
    """Snapshot of the recorded acquisition-order edges (diagnostics)."""
    with _graph_guard:
        return iter([(a, b) for a, succ in _edges.items() for b in sorted(succ)])
