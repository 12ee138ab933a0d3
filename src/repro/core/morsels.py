"""Morsel-driven parallel execution: the one probe-phase thread driver.

Worker threads pull fixed-size morsels off a shared atomic counter and
keep private partial results that the caller merges
(:func:`repro.core.joins.merge_join_results`) — the paper's Section 3.4
scheme.  The offline thread-parallel joins
(``index.join(..., num_threads=N)`` through :func:`offline_pool`,
:func:`repro.core.joins.parallel_count_join`) run one call on a
short-lived pool; the serving layer (exported there as
``repro.serve.MorselExecutor``) keeps the pool *persistent*, because a
service dispatching thousands of batches per second cannot afford to
spawn threads per request.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")

#: Points per numpy-granularity morsel: large enough that a kernel call's
#: fixed cost disappears, small enough that its temporaries stay cache-
#: and allocator-friendly.  The offline pool cuts batches at it, and the
#: sharded front sizes its scatter ring to exactly one.
OFFLINE_MORSEL_POINTS = 1 << 16


class MorselExecutor:
    """A persistent pool executing ``work(lo, hi)`` over morsel ranges.

    The shared ``itertools.count`` hand-out is the paper's atomic batch
    counter (Section 3.4): whichever worker finishes first grabs the next
    morsel, so skewed morsels (a hot cell making one range expensive)
    balance automatically.
    """

    def __init__(self, num_threads: int, morsel_size: int = 1 << 14,
                 metrics=None):
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        if morsel_size < 1:
            raise ValueError(f"morsel_size must be >= 1, got {morsel_size}")
        self.num_threads = num_threads
        self.morsel_size = morsel_size
        self._pool = ThreadPoolExecutor(
            max_workers=num_threads, thread_name_prefix="repro-serve"
        )
        self._morsel_hist = (
            metrics.histogram(
                "serve_morsels_per_dispatch",
                "morsel ranges a parallel dispatch split into",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            )
            if metrics is not None
            else None
        )

    def map_morsels(
        self, num_items: int, work: Callable[[int, int], T]
    ) -> list[T]:
        """Run ``work(lo, hi)`` for every morsel range; results in order.

        Fails fast: the first worker whose ``work`` raises sets a shared
        flag, so the other workers stop claiming morsels instead of
        grinding through the rest of a batch whose result is already
        doomed.  The first exception (in failure order) is re-raised.
        """
        num_morsels = (num_items + self.morsel_size - 1) // self.morsel_size
        if self._morsel_hist is not None and num_morsels:
            self._morsel_hist.observe(num_morsels)
        if num_morsels <= 1:
            return [work(0, num_items)] if num_items else []
        counter = itertools.count()  # the shared atomic morsel counter
        results: list[T | None] = [None] * num_morsels
        failed = threading.Event()
        errors: list[BaseException] = []
        errors_lock = threading.Lock()

        def worker() -> None:
            while not failed.is_set():
                morsel = next(counter)
                if morsel >= num_morsels:
                    return
                lo = morsel * self.morsel_size
                hi = min(lo + self.morsel_size, num_items)
                try:
                    results[morsel] = work(lo, hi)
                except BaseException as exc:
                    with errors_lock:
                        errors.append(exc)
                    failed.set()
                    return

        futures = [
            self._pool.submit(worker)
            for _ in range(min(self.num_threads, num_morsels))
        ]
        for future in futures:
            future.result()
        if errors:
            raise errors[0]
        return results  # type: ignore[return-value]

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "MorselExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def offline_pool(num_threads: int) -> "MorselExecutor | nullcontext[None]":
    """The pool of one offline ``index.join(..., num_threads=N)`` call.

    A short-lived executor with morsels of :data:`OFFLINE_MORSEL_POINTS`
    points (numpy-granularity work) as a context manager; for one thread, a
    context yielding ``None`` — no pool, the driver's straight call.
    """
    if num_threads > 1:
        return MorselExecutor(num_threads, OFFLINE_MORSEL_POINTS)
    return nullcontext()
