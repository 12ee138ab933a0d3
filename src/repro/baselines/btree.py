"""GBT: a bulk-loaded B-tree over super-covering cell ids.

Models the Google C++ B-tree the paper compares against, with its most
query-efficient configuration (256-byte nodes, i.e. 16 keys of 16 bytes per
node).  Keys are the covering cells' ``range_min`` values; a lookup
descends to the leaf holding the largest key not exceeding the query id and
then verifies containment against that cell's ``range_max`` — the same
predecessor-search semantics as the sorted vector, but with B-tree memory
traffic.

The tree is stored level by level in dense numpy arrays (children of node
``n`` occupy slots ``n*F .. n*F+F-1`` of the next level), so a batch probe
is a level-synchronous vectorized descent: per level, one gather of each
query's current node and one in-node comparison count.  This keeps the
comparison structure (and the modeled node accesses / cache lines) of a
real B-tree while letting all competitors share numpy-grade constant
factors (DESIGN.md §1.3 item 2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.lookup_table import LookupTable
from repro.core.rows import RowStore, RowTable, entry_rows
from repro.core.super_covering import SuperCovering
from repro.util.timing import Timer

#: 256-byte nodes of 16-byte (key, value) pairs, as in the paper's GBT.
NODE_BYTES = 256
FANOUT = NODE_BYTES // 16

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


class BTreeStore(RowStore):
    """The paper's "GBT" competitor."""

    name = "GBT"

    def __init__(self, super_covering: SuperCovering, *, fanout: int = FANOUT):
        if fanout < 2:
            raise ValueError("B-tree fanout must be at least 2")
        self.fanout = fanout
        self.lookup_table = LookupTable()
        with Timer() as timer:
            ids = super_covering.cell_ids
            entries, self._rows = entry_rows(
                self.lookup_table.encode_covering(super_covering)
            )
            self.rows = RowTable.decode(entries, self.lookup_table)
            lsb = ids & (~ids + np.uint64(1))
            lows = ids - (lsb - np.uint64(1))
            highs = ids + (lsb - np.uint64(1))
            self._highs = highs
            self._levels = self._pack_levels(lows)
        self.build_seconds = timer.seconds
        self.num_cells = len(ids)

    def _pack_levels(self, keys: np.ndarray) -> list[np.ndarray]:
        """Dense level arrays, leaves last; each padded to full nodes."""
        fanout = self.fanout
        levels = [keys]
        while len(levels[-1]) > fanout:
            below = levels[-1]
            num_nodes = (len(below) + fanout - 1) // fanout
            # Separator = first key of each node below.
            seps = below[::fanout][:num_nodes]
            levels.append(seps)
        levels.reverse()  # root first
        padded = []
        for level in levels:
            num_nodes = (len(level) + fanout - 1) // fanout
            full = np.full(num_nodes * fanout, _U64_MAX, dtype=np.uint64)
            full[: len(level)] = level
            padded.append(full.reshape(num_nodes, fanout))
        self._leaf_count = len(levels[-1])
        return padded

    @property
    def height(self) -> int:
        return len(self._levels)

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------

    #: Queries processed per batch; keeps the per-level (chunk x fanout)
    #: gather temporaries cache-resident (the paper's probe threads pull
    #: small tuple batches for the same reason).
    CHUNK = 1 << 15

    def probe_rows(self, query_ids: np.ndarray) -> np.ndarray:
        """Entry rows for leaf cell ids (0 = false hit)."""
        query_ids = np.asarray(query_ids, dtype=np.uint64)
        out = np.empty(len(query_ids), dtype=np.intp)
        if self.num_cells == 0:
            out[:] = 0
            return out
        for start in range(0, len(query_ids), self.CHUNK):
            chunk = query_ids[start:start + self.CHUNK]
            out[start:start + self.CHUNK] = self._probe_chunk(chunk)
        return out

    def _probe_chunk(self, query_ids: np.ndarray) -> np.ndarray:
        node = np.zeros(len(query_ids), dtype=np.int64)
        q = query_ids[:, None]
        for depth, level in enumerate(self._levels):
            keys = level[node]  # (n, fanout) gather
            slot = np.count_nonzero(keys <= q, axis=1) - 1
            if depth + 1 < len(self._levels):
                # Descend; separators guarantee slot >= 0 except for queries
                # below the smallest key, which clamp to the leftmost child.
                node = node * self.fanout + np.maximum(slot, 0)
            else:
                position = node * self.fanout + slot
        valid = (slot >= 0) & (position < self.num_cells)
        clamped = np.clip(position, 0, self.num_cells - 1)
        hit = valid & (query_ids <= self._highs[clamped])
        return np.where(hit, self._rows[clamped], 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Modeled footprint: key+value slots in every node."""
        slots = sum(level.size for level in self._levels)
        return 16 * slots + self.lookup_table.size_bytes

    def node_accesses_per_probe(self) -> int:
        return self.height

    def comparisons_per_probe(self) -> float:
        """Binary search within each visited node."""
        return self.height * math.log2(self.fanout)

    def cache_lines_per_probe(self) -> float:
        """A 256-byte node spans four cache lines; binary search touches ~3."""
        return self.height * 3.0

    def describe(self) -> dict[str, object]:
        return {
            "variant": self.name,
            "num_cells": self.num_cells,
            "height": self.height,
            "fanout": self.fanout,
            "size_bytes": self.size_bytes,
            "build_seconds": self.build_seconds,
        }
