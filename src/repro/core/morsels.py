"""Morsel-driven parallel execution of one offline join call.

Worker threads pull fixed-size morsels off a shared atomic counter and
keep private partial results that the caller merges
(:func:`repro.core.joins.merge_join_results`) — the paper's Section 3.4
scheme.  :func:`map_morsels` runs one call on a short-lived pool; its
only caller is :func:`repro.core.joins.join_batch`, reached from the
offline thread-parallel joins (``index.join(..., num_threads=N)``,
:func:`repro.core.joins.parallel_count_join`).  The serving layer joins
each batch in one straight call and parallelises across shard processes
(:mod:`repro.serve.sharded`) instead.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")

#: Points per numpy-granularity morsel: large enough that a kernel call's
#: fixed cost disappears, small enough that its temporaries stay cache-
#: and allocator-friendly.  ``index.join(..., num_threads=N)`` cuts
#: batches at it, and the sharded front sizes its scatter ring to exactly
#: one.
OFFLINE_MORSEL_POINTS = 1 << 16


def map_morsels(
    num_items: int,
    work: Callable[[int, int], T],
    num_threads: int,
    morsel_size: int,
) -> list[T]:
    """Run ``work(lo, hi)`` for every morsel range; results in order.

    The shared ``itertools.count`` hand-out is the paper's atomic batch
    counter (Section 3.4): whichever of the ``num_threads`` workers
    finishes first grabs the next morsel, so skewed morsels (a hot cell
    making one range expensive) balance automatically.  The pool lives
    for this call only; a batch of one morsel runs inline.

    Fails fast: the first worker whose ``work`` raises sets a shared
    flag, so the other workers stop claiming morsels instead of grinding
    through the rest of a batch whose result is already doomed.  The
    first exception (in failure order) is re-raised.
    """
    num_morsels = (num_items + morsel_size - 1) // morsel_size
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
            lo = morsel * morsel_size
            hi = min(lo + morsel_size, num_items)
            try:
                results[morsel] = work(lo, hi)
            except BaseException as exc:
                with errors_lock:
                    errors.append(exc)
                failed.set()
                return

    workers = min(num_threads, num_morsels)
    with ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-morsel"
    ) as pool:
        futures = [pool.submit(worker) for _ in range(workers)]
        for future in futures:
            future.result()
    if errors:
        raise errors[0]
    return results  # type: ignore[return-value]
