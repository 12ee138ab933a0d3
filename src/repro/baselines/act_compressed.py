"""Ablation: ACT with ART-style compressed (Node4) inner nodes.

The paper reports *considering and rejecting* adaptive node sizes as
proposed by the adaptive radix tree: a compressed node type with four
children "(i) saves only a negligible amount of space for our workload and
(ii) has a significant performance impact (due to the additional
instructions and branch misses for dispatching between node types)".

This module makes that design discussion reproducible.
:class:`CompressedCellTrie` is an ACT whose sparsely occupied nodes
(up to four non-empty slots) are stored as ART-style Node4 records — a
4-entry key array plus a 4-entry value array — while dense nodes keep the
full slot array.  The probe must dispatch on the node type per level and
run a small key search inside Node4s, reproducing exactly the overhead the
paper measured.  The ``ablation_node_types`` table of ``python -m
repro.bench ablations`` compares the two layouts; the paper's conclusion
(marginal memory savings, slower probes) holds in this reproduction too —
see ``results/paper/``.  It is a competitor of the evaluation, not a
layout an index can be held in.
"""

from __future__ import annotations

import numpy as np

from repro.core.act import AdaptiveCellTrie
from repro.core.rows import RowStore
from repro.core.super_covering import SuperCovering
from repro.util.timing import Timer

#: Slot-count threshold below which a node is stored compressed.
NODE4_CAPACITY = 4

#: Bit 0 of a pointer slot: set, the rest is a Node4 record's index;
#: clear, a full node's slot base.
_NODE4_FLAG = 1


class CompressedCellTrie(RowStore):
    """ACT with two node types: full nodes and ART-style Node4s.

    Built by post-processing a regular :class:`AdaptiveCellTrie`: nodes
    with at most four occupied slots move into compact key/value arrays and
    their parent pointers gain a type-flag bit.  Slots keep the trie's
    signed encoding (a pointer > 0, minus a row of its ``entries`` table
    for a value), and the trie's lookup table is this store's.  Probe
    results are identical to the uncompressed trie (tested); only layout
    and dispatch differ.
    """

    def __init__(self, super_covering: SuperCovering, fanout_bits: int = 8):
        base = AdaptiveCellTrie(super_covering, fanout_bits=fanout_bits)
        self.lookup_table = base.lookup_table
        self.fanout_bits = fanout_bits
        self.fanout = base.fanout
        self.delta = base.delta
        self.num_keys = base.num_keys
        self.rows = base.rows
        self._face_trees = base._face_trees
        self._face_found = base._face_found
        self._max_value_depth = base._max_value_depth
        with Timer() as timer:
            self._compress(base)
        self.build_seconds = base.build_seconds + timer.seconds

    # ------------------------------------------------------------------
    # Build (compression pass)
    # ------------------------------------------------------------------

    def _compress(self, base: AdaptiveCellTrie) -> None:
        fanout = self.fanout
        pool = base.pool
        num_nodes = base.num_nodes
        occupancy = np.count_nonzero(
            pool[fanout:].reshape(num_nodes, fanout), axis=1
        ) if num_nodes else np.zeros(0, dtype=np.int64)
        # Roots stay uncompressed so per-face entry points keep one form.
        root_bases = {tree.root_base for tree in self._face_trees.values()}
        is_node4 = occupancy <= NODE4_CAPACITY
        for root in root_bases:
            is_node4[(root - fanout) // fanout] = False

        # Assign new offsets: full nodes keep pool slots, Node4s move to
        # compact arrays.
        full_index = np.cumsum(~is_node4) - 1
        node4_index = np.cumsum(is_node4) - 1
        self.num_full_nodes = int((~is_node4).sum())
        self.num_node4 = int(is_node4.sum())

        new_pool = np.zeros((self.num_full_nodes + 1) * fanout, dtype=np.int64)
        node4_keys = np.full((max(1, self.num_node4), NODE4_CAPACITY), -1, np.int16)
        node4_values = np.zeros((max(1, self.num_node4), NODE4_CAPACITY), np.int64)

        def translate(entry: int) -> int:
            """Rewrite a child pointer to the new layout (values pass through)."""
            if entry <= 0:
                return entry
            old_node = (entry - fanout) // fanout
            if is_node4[old_node]:
                return (int(node4_index[old_node]) << 1) | _NODE4_FLAG
            return ((int(full_index[old_node]) + 1) * fanout) << 1

        for old_node in range(num_nodes):
            old_slots = pool[(old_node + 1) * fanout:(old_node + 2) * fanout]
            occupied = np.nonzero(old_slots)[0]
            if is_node4[old_node]:
                row = int(node4_index[old_node])
                for column, slot in enumerate(occupied):
                    node4_keys[row, column] = slot
                    node4_values[row, column] = translate(int(old_slots[slot]))
            else:
                new_base = (int(full_index[old_node]) + 1) * fanout
                for slot in occupied:
                    new_pool[new_base + slot] = translate(int(old_slots[slot]))

        self.pool = new_pool
        self.node4_keys = node4_keys
        self.node4_values = node4_values
        # Remap face-tree roots (roots are always full nodes).
        for tree in self._face_trees.values():
            old_node = (tree.root_base - fanout) // fanout
            tree.root_base = (int(full_index[old_node]) + 1) * fanout

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------

    def probe_rows(self, query_ids: np.ndarray) -> np.ndarray:
        """Entry rows for leaf cell ids (0 = false hit).

        Identical contract to :meth:`AdaptiveCellTrie.probe_rows`; per
        level the active set is split by node type (the dispatch the paper
        blames for the slowdown).
        """
        query_ids = np.ascontiguousarray(query_ids, dtype=np.uint64)
        out = np.zeros(len(query_ids), dtype=np.intp)
        faces = (query_ids >> np.uint64(61)).astype(np.int64)
        for face, tree in self._face_trees.items():
            face_idx = np.nonzero(faces == face)[0]
            if face_idx.size == 0:
                continue
            sub = query_ids[face_idx]
            ok = (sub >> np.uint64(tree.prefix_shift)) == np.uint64(tree.prefix_value)
            active_idx = face_idx[ok]
            active_ids = sub[ok]
            # current: payload<<1 | type_flag (full roots have flag 0).
            current = np.full(active_idx.size, tree.root_base << 1, dtype=np.int64)
            depth = tree.prefix_depth
            while active_idx.size and depth < self._max_value_depth:
                shift = 61 - 2 * self.delta * (depth + 1)
                bits = ((active_ids >> np.uint64(shift)) & np.uint64(self.fanout - 1)).astype(
                    np.int64
                )
                entries = np.zeros(active_idx.size, dtype=np.int64)
                is_node4 = (current & 1).astype(bool)
                full_sel = np.nonzero(~is_node4)[0]
                if full_sel.size:
                    bases = current[full_sel] >> 1
                    entries[full_sel] = self.pool[bases + bits[full_sel]]
                n4_sel = np.nonzero(is_node4)[0]
                if n4_sel.size:
                    rows = current[n4_sel] >> 1
                    keys = self.node4_keys[rows]  # (m, 4)
                    match = keys == bits[n4_sel][:, None].astype(np.int16)
                    has_match = match.any(axis=1)
                    column = np.argmax(match, axis=1)
                    found = self.node4_values[rows, column]
                    entries[n4_sel] = np.where(has_match, found, 0)
                is_value = entries < 0
                if np.any(is_value):
                    out[active_idx[is_value]] = -entries[is_value]
                descend = entries > 0
                active_idx = active_idx[descend]
                active_ids = active_ids[descend]
                current = entries[descend]
                depth += 1
        # A level-0 face cell's lanes hold its row (``-found``).
        face_rows = -self._face_found[faces]
        return np.where(face_rows > 0, face_rows, out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"ACT{self.delta}+Node4"

    @property
    def size_bytes(self) -> int:
        """Modeled footprint: full-node pool + Node4 records + lookup table.

        A Node4 record models ART's layout: 4 one-byte keys + 4 eight-byte
        values (36 bytes, padded to 40).
        """
        node4_bytes = self.num_node4 * 40
        return int(self.pool.nbytes) + node4_bytes + self.lookup_table.size_bytes

    def describe(self) -> dict[str, object]:
        return {
            "variant": self.name,
            "num_full_nodes": self.num_full_nodes,
            "num_node4": self.num_node4,
            "size_bytes": self.size_bytes,
            "build_seconds": self.build_seconds,
        }
