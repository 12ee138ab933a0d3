"""Calibrated time: wall time divided by an interleaved reference kernel.

On the shared 2-vCPU sandboxes this benchmark runs in, the host slows
every process by a factor that wanders between 1.0 and ~1.8 on a scale
of seconds to minutes (no steal time is reported; CPU time equals wall
time).  Sizing runs on the parent commit: the median latency of one
unchanged ``JoinService.join`` op read 22.3 - 31.9 ms across ten
consecutive 15 s windows (quartile spread 27 % of the median), and a
bare ``np.sort`` moved in step with it.  A 10 % regression bound cannot
be judged on such numbers, however long a 12 s run is made.

So every timed step is followed by one run of a fixed numpy kernel
(:class:`ReferenceKernel`), and a step's
*calibrated* duration is its wall time scaled by
``REFERENCE_KERNEL_S / local kernel time``: the time the step would have
taken on a host where the kernel takes exactly ``REFERENCE_KERNEL_S``.
On the same sizing data this brought the window-to-window spread of the
median op latency to 2 - 4 % and of p99 to 11 - 15 %.  The kernel is part
of the benchmark, so it is the same code on both sides of any
comparison; the raw kernel time is reported (``harness.kernel_ms``) so
wall times can be recovered.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal kernel time: roughly what the kernel takes on an undisturbed
#: sandbox core, so calibrated milliseconds read close to real ones.
REFERENCE_KERNEL_S = 1.0e-3

#: Kernel samples (one per step) pooled into each step's local reference.
_WINDOW = 5


class ReferenceKernel:
    """A fixed ~1 ms numpy workload timed after every benchmark step.

    Sort/unique, dependent gathers and float arithmetic — the kinds of
    work the join does — over arrays of 8 192 elements (64 KiB) and a
    128 KiB table.  Everything stays cache-resident on purpose: sizing
    runs showed two independent kinds of host noise, one that slows all
    compute alike (sort, arithmetic, small gathers and interpreter loops
    move within 3 - 5 % of each other) and one that slows only
    last-level-cache traffic (gathers through a 2 MiB table wander
    14 - 16 % against the rest).  The join ops follow the first kind, so
    a kernel that also probed the second over-corrected them by up to
    20 % whenever a neighbour thrashed the cache.  64 KiB arrays also
    stay under the allocator's 128 KiB mmap threshold, so the kernel's
    cost does not depend on the process's malloc history.
    """

    _SIZE = 8_192
    _TABLE_BITS = 14

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, self._SIZE).astype(np.uint64)
        self._table = rng.integers(0, 1 << 30, 1 << self._TABLE_BITS)
        self._index = rng.integers(0, 1 << self._TABLE_BITS, self._SIZE)
        self._a = rng.random(self._SIZE)
        self._b = rng.random(self._SIZE)

    def sample(self) -> float:
        """Run the kernel once; returns its wall seconds."""
        mask = (1 << self._TABLE_BITS) - 1
        start = time.perf_counter()
        for _ in range(3):
            np.unique(self._keys, return_inverse=True)
        index = self._index
        for _ in range(8):  # each gather depends on the previous one
            index = self._table[index] & mask
        h = self._a
        for _ in range(4):
            h = np.sqrt(h * h + self._b)
            np.floor(h * 1e6).astype(np.int64) << 1
        return time.perf_counter() - start


def calibration_factors(kernel_seconds: np.ndarray) -> np.ndarray:
    """Per-step scale factors from the kernel sample taken after each step.

    A step's local reference is the median of the samples around it
    (``_WINDOW`` wide, truncated at the ends), which tracks host-state
    changes within a few steps but ignores one disturbed sample.
    """
    samples = np.asarray(kernel_seconds, dtype=np.float64)
    half = _WINDOW // 2
    local = np.empty_like(samples)
    for i in range(len(samples)):
        local[i] = np.median(samples[max(0, i - half) : i + half + 1])
    return REFERENCE_KERNEL_S / local
