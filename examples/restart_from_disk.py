#!/usr/bin/env python3
"""Restart from disk: save an index once, attach it on every restart.

A FORMAT_VERSION 3 file is one flat blob of packed numpy buffers, so
``load_index`` is an ``np.load(..., mmap_mode="r")`` attach — the trie,
the store entries, the lookup table, and the refinement tables come back
as memory-mapped views inside an ordinary ``PolygonIndex``, with no store
rebuild and bit-identical joins.

Run:  python examples/restart_from_disk.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import PolygonIndex, load_index, save_index
from repro.geo.polygon import regular_polygon

# A grid of 25 "delivery zones".
zones = [
    regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 24)
    for gx in range(5)
    for gy in range(5)
]


def main() -> None:
    # ------------------------------------------------------------------
    # First process life: build (expensive) and save (one flat file).
    # ------------------------------------------------------------------
    started = time.perf_counter()
    index = PolygonIndex.build(zones, precision_meters=15.0)
    build_seconds = time.perf_counter() - started

    path = Path(tempfile.mkdtemp()) / "zones.idx"
    save_index(index, path)
    print(f"built in {build_seconds:.2f}s, "
          f"saved {path.stat().st_size / 1024:.0f} KiB to {path}")

    # ------------------------------------------------------------------
    # Every later life: attach. load_index maps the file read-only
    # (np.load(..., mmap_mode="r") under the hood) and hands the buffers
    # to a PolygonIndex that holds the snapshot — same class as the built
    # one, and pages fault in lazily as probes touch them.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    restored = load_index(path)
    attach_seconds = time.perf_counter() - started
    assert type(restored) is PolygonIndex and restored.snapshot is not None
    print(f"attached in {attach_seconds * 1e3:.1f}ms "
          f"({build_seconds / attach_seconds:.0f}x faster than the build)")

    # ------------------------------------------------------------------
    # Joins on the attached index are bit-identical to the original.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(7)
    lngs = rng.uniform(-74.02, -73.90, 100_000)
    lats = rng.uniform(40.68, 40.80, 100_000)
    a = index.join(lats, lngs, exact=True)
    b = restored.join(lats, lngs, exact=True)
    assert np.array_equal(a.counts, b.counts)
    print(f"joined 100,000 points: {int(b.counts.sum()):,} hits, "
          "bit-identical to the pre-restart index")


if __name__ == "__main__":
    main()
