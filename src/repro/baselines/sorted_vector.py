"""LB: binary search on a sorted vector of (cell id, tagged entry) pairs.

This is the paper's simplest physical representation: the super covering is
already sorted by cell id, so "building" is free, and a probe is a binary
search (``std::lower_bound`` in the paper, ``numpy.searchsorted`` here)
followed by one containment check.  Because the covering is normalized
(disjoint cells), the only cell that can contain a query point is the one
with the largest ``range_min`` not exceeding the query id.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.lookup_table import LookupTable
from repro.core.rows import RowStore, RowTable, entry_rows
from repro.core.super_covering import SuperCovering
from repro.util.timing import Timer


class SortedVectorStore(RowStore):
    """The paper's "LB" competitor."""

    name = "LB"

    def __init__(self, super_covering: SuperCovering):
        self.lookup_table = LookupTable()
        with Timer() as timer:
            ids = super_covering.cell_ids
            entries, self._rows = entry_rows(
                self.lookup_table.encode_covering(super_covering)
            )
            self.rows = RowTable.decode(entries, self.lookup_table)
            # Vectorized range_min/range_max: lsb = id & -id in two's
            # complement, which for uint64 is id & (~id + 1).
            lsb = ids & (~ids + np.uint64(1))
            self._ids = ids
            self._lows = ids - (lsb - np.uint64(1))
            self._highs = ids + (lsb - np.uint64(1))
        self.build_seconds = timer.seconds
        self.num_cells = len(ids)

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------

    def probe_rows(self, query_ids: np.ndarray) -> np.ndarray:
        """Entry rows for leaf cell ids (0 = false hit)."""
        query_ids = np.asarray(query_ids, dtype=np.uint64)
        if self.num_cells == 0:
            return np.zeros(len(query_ids), dtype=np.intp)
        slot = np.searchsorted(self._lows, query_ids, side="right").astype(np.int64) - 1
        clamped = np.clip(slot, 0, self.num_cells - 1)
        hit = (slot >= 0) & (query_ids <= self._highs[clamped])
        return np.where(hit, self._rows[clamped], 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Paper accounting: a vector of (cell id, tagged entry) pairs."""
        return 16 * self.num_cells + self.lookup_table.size_bytes

    def comparisons_per_probe(self) -> float:
        """Binary search cost model for the counter experiment (Table 5)."""
        return math.log2(max(2, self.num_cells))

    def describe(self) -> dict[str, object]:
        return {
            "variant": self.name,
            "num_cells": self.num_cells,
            "size_bytes": self.size_bytes,
            "build_seconds": self.build_seconds,
        }
