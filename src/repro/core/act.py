"""The Adaptive Cell Trie (ACT): a radix tree over 64-bit cell ids.

ACT is the paper's core data structure (Section 3.1.2).  It indexes the
disjoint cells of a super covering so that, given the leaf cell id of a
query point, the unique covering cell containing it (if any) is found with
at most ``ceil(60 / fanout_bits)`` node accesses and **no key comparisons**.

Design points reproduced from the paper:

* **Configurable fanout** — ``fanout_bits`` of 2/4/8 bits per tree level
  correspond to 1/2/4 quadtree levels (the paper's ACT1/ACT2/ACT4).
* **Key extension** — a cell whose level is not a multiple of the per-level
  granularity ``delta`` stands for all its descendants at the next multiple,
  its payload replicated over their slots.  Every node then holds cells of
  one level only, and a lookup within a node is a single offset access.
* **Combined pointer/value slots** — because super-covering cells are
  disjoint, a slot never needs both a child pointer and a value; 2 tag bits
  in each 8-byte slot distinguish pointer / one inlined reference / two
  inlined references / lookup-table offset (see repro.core.lookup_table).
* **Sentinel** — empty slots hold the zero entry, a "pointer to the
  sentinel node" (node 0, all zeros), so the probe loop needs no
  emptiness branch.
* **Root-level common prefix** — each face tree skips the levels all its
  keys share; a probe first verifies the skipped bits.
* **Face trees** — up to six trees, selected by the top 3 id bits.

The node pool is a single numpy ``uint64`` array (node = ``fanout``
consecutive slots), which makes the probe a level-synchronous gather loop
over whole query batches and makes the modeled memory footprint (what the
C++ original would allocate) exact: ``num_nodes * fanout * 8`` bytes.

The build is a bulk load from the covering's sorted cell ids, in linear
passes and without materialising the extended keys.  Above its value
depth a cell's extended keys all share the cell's own prefix, so the
cells decide the node set: per depth, the nodes are the distinct prefixes
of the cells valued deeper, and on sorted ids "distinct" is "differs from
the left neighbour" — no sort.  A cell at level ``L`` extended to ``T``
fills ``4 ** (T - L)`` *consecutive* slots of one node, starting at its
first descendant's slot; the slot positions of those runs and the entries
repeated over them are the only arrays as long as the extended key set.
(``tests/oracles.py`` keeps the key-materialising build as the oracle.)

The probe is one descent for the whole batch.  8-entry *root tables*
indexed by an id's face bits give every lane its tree's root and the
prefix it must match (a face without a tree holds an unmatchable prefix,
so its lanes start in the sentinel); one table set per distinct prefix
depth, normally one.  Per level a lane gathers ``pool[current + slot]``;
a value is copied out and the lane moves to the sentinel, a zero entry
*is* a move to the sentinel, and a lane in the sentinel keeps reading
zeros — resolved and fallen-off lanes need no test, no scatter and no
compaction.  Only when fewer than a quarter of the lanes are still live
does the descent continue on a compacted copy (one ``count_nonzero`` per
level, which also ends the loop): without that rule a batch that mostly
misses — world-wide points against one city's index — would drag every
lane through every level.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.cells.cellid import MAX_LEVEL
from repro.cells.vectorized import levels_from_cell_ids
from repro.core.lookup_table import LookupTable, TAG_POINTER
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering
from repro.util.timing import Timer

#: Bit position of the face field inside a cell id.
_FACE_SHIFT = 61
_TAG_BITS = np.uint64(2)
_TAG_MASK = np.uint64(3)
_TAG_POINTER = np.uint64(TAG_POINTER)
#: The descent compacts its lane set when fewer than one lane in this
#: many is still live (see ``AdaptiveCellTrie._descend``).
_COMPACT_BELOW = 4
#: A root-table prefix no id can match: prefix shifts are >= 1, so a
#: shifted id never has its top bit set.
_NO_PREFIX = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class ProbeStats:
    """Instrumentation captured by :meth:`AdaptiveCellTrie.probe_instrumented`."""

    depths: np.ndarray  # node accesses per point (0 = rejected by prefix)
    node_accesses: int = 0
    prefix_rejections: int = 0

    def depth_histogram(self) -> dict[int, float]:
        """Fraction of probes ending after each number of node accesses."""
        total = len(self.depths)
        if total == 0:
            return {}
        values, counts = np.unique(self.depths, return_counts=True)
        return {int(v): float(c) / total for v, c in zip(values, counts)}

    @property
    def avg_depth(self) -> float:
        return float(self.depths.mean()) if len(self.depths) else 0.0


@dataclass
class _FaceTree:
    root_base: int  # slot base of the root node
    prefix_shift: int  # query bits above this must equal prefix_value
    prefix_value: int
    prefix_depth: int  # ACT levels skipped by the common prefix


@dataclass
class _RootTable:
    """Where a probe starts, for every face tree sharing one prefix depth.

    The 8-entry arrays are indexed by an id's top three bits.  A face
    with no tree (at this prefix depth) holds ``_NO_PREFIX``, so its
    lanes start in the sentinel node.
    """

    prefix_depth: int
    prefix_shift: np.uint64
    prefix_value: np.ndarray  # uint64
    root_base: np.ndarray  # int64 slot bases


class AdaptiveCellTrie:
    """An immutable radix tree built from a super covering.

    Parameters
    ----------
    super_covering:
        The disjoint cell/reference mapping to index.
    fanout_bits:
        Bits consumed per tree level: 2, 4 or 8 (ACT1 / ACT2 / ACT4).
    lookup_table:
        Optionally share a pre-existing lookup table (the paper uses the
        same table for every physical representation it compares).
    """

    #: Paper names for the supported configurations.
    VARIANTS = {"ACT1": 2, "ACT2": 4, "ACT4": 8}

    def __init__(
        self,
        super_covering: SuperCovering,
        fanout_bits: int = 8,
        lookup_table: LookupTable | None = None,
    ):
        if fanout_bits not in (2, 4, 8):
            raise ValueError("fanout_bits must be 2, 4, or 8")
        self.fanout_bits = fanout_bits
        self.delta = fanout_bits // 2  # quadtree levels per tree level
        self.fanout = 1 << fanout_bits
        self.lookup_table = lookup_table if lookup_table is not None else LookupTable()
        self._face_trees: dict[int, _FaceTree] = {}
        self._face_values: dict[int, int] = {}  # face -> tagged entry (level-0 cells)
        self.num_keys = 0  # cells after key extension
        self.num_input_cells = super_covering.num_cells
        with Timer() as timer:
            self._build(super_covering)
            self._index_roots()
        self.build_seconds = timer.seconds

    @classmethod
    def attach(
        cls,
        pool: np.ndarray,
        faces: np.ndarray,
        face_values: np.ndarray,
        meta: Mapping[str, object],
        lookup_table: LookupTable,
    ) -> "AdaptiveCellTrie":
        """A trie over an already-built node pool — no build, no copy.

        ``pool`` is the node pool and ``faces`` / ``face_values`` the
        per-face ``(face, root_base, prefix_shift, prefix_value,
        prefix_depth)`` and ``(face, entry)`` rows of a packed trie
        (typically views into a flat snapshot blob, see
        :func:`repro.core.flat.pack_index`); ``meta`` carries the
        scalars the build would have computed.  The result probes,
        instruments, and describes itself exactly like the trie that was
        packed.
        """
        store = cls.__new__(cls)
        store.fanout_bits = int(meta["fanout_bits"])
        store.delta = store.fanout_bits // 2
        store.fanout = 1 << store.fanout_bits
        store.lookup_table = lookup_table
        store.pool = pool
        store.num_nodes = int(meta["num_nodes"])
        store.num_keys = int(meta["num_keys"])
        store.num_input_cells = int(meta["num_input_cells"])
        store.build_seconds = float(meta.get("build_seconds", 0.0))
        store._max_value_depth = int(meta["max_value_depth"])
        store._face_trees = {
            int(row[0]): _FaceTree(
                root_base=int(row[1]),
                prefix_shift=int(row[2]),
                prefix_value=int(row[3]),
                prefix_depth=int(row[4]),
            )
            for row in faces
        }
        store._face_values = {int(row[0]): int(row[1]) for row in face_values}
        store._index_roots()
        return store

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build(self, super_covering: SuperCovering) -> None:
        """Bulk construction from the sorted cells: node discovery, child
        pointers and slot runs are linear numpy passes (module docstring)."""
        delta = self.delta
        fanout = self.fanout
        ids = super_covering.cell_ids
        entries = self.lookup_table.encode_covering(super_covering)
        levels = levels_from_cell_ids(ids)
        if np.any(levels < 0):
            raise ValueError("invalid cell id in super covering")
        # A cell's value sits at the tree depth of its extended level.
        value_depths = (levels + (delta - 1)) // delta
        if int(value_depths.max(initial=0)) * delta > MAX_LEVEL:
            bad_level = int(levels[value_depths * delta > MAX_LEVEL][0])
            raise ValueError(
                f"cell at level {bad_level} cannot be key-extended to a multiple "
                f"of {delta} within {MAX_LEVEL} levels; cap covering max_level at "
                f"{MAX_LEVEL - delta + 1} or below for this fanout"
            )
        # Face-level cells (level 0) are handled outside the node pool.
        face_level = levels == 0
        if np.any(face_level):
            for raw_id, entry in zip(ids[face_level], entries[face_level]):
                self._face_values[int(raw_id) >> _FACE_SHIFT] = int(entry)
            keep = ~face_level
            ids, entries, levels, value_depths = (
                ids[keep], entries[keep], levels[keep], value_depths[keep]
            )
        # A cell at level L extended to T stands for its 4^(T-L) descendants.
        expansion = np.left_shift(np.int64(1), 2 * (value_depths * delta - levels))
        self.num_keys = int(expansion.sum())
        self._max_value_depth = int(value_depths.max()) if len(ids) else 0
        if self.num_keys == 0:
            self.num_nodes = 0
            self.pool = np.zeros(fanout, dtype=np.uint64)
            return

        max_depth = self._max_value_depth
        slot_mask = np.uint64(fanout - 1)
        # Discover nodes: at depth d, one node per distinct prefix of the
        # cells whose value sits deeper than d (prefix = id bits above the
        # slot consumed at depth d+1).  The ids are sorted, so are their
        # prefixes: distinct is "differs from its left neighbour".  A cell
        # valued at depth d+1 starts its slot run in the node it was just
        # counted into.  Prefixes include the face bits, so all faces share
        # the per-depth tables.
        depth_prefixes: list[np.ndarray] = []
        depth_bases: list[int] = []
        run_starts = np.zeros(len(ids), dtype=np.int64)
        next_base = fanout  # node 0 is the sentinel
        for depth in range(max_depth):
            rows = np.flatnonzero(value_depths > depth)
            prefixes = ids[rows] >> np.uint64(_FACE_SHIFT - 2 * delta * depth)
            is_new = np.ones(len(rows), dtype=bool)
            is_new[1:] = prefixes[1:] != prefixes[:-1]
            valued = value_depths[rows] == depth + 1
            node = (np.cumsum(is_new) - 1)[valued]
            rows = rows[valued]
            # The first descendant's slot: the cell's bits below the node
            # prefix, marker cleared, zeros down to the extended level.
            first = ids[rows]
            first &= first - np.uint64(1)
            first >>= np.uint64(_FACE_SHIFT - 2 * delta * (depth + 1))
            run_starts[rows] = next_base + node * fanout + (first & slot_mask).astype(np.int64)
            nodes = prefixes[is_new]
            depth_prefixes.append(nodes)
            depth_bases.append(next_base)
            next_base += len(nodes) * fanout

        self.num_nodes = (next_base - fanout) // fanout
        pool = np.zeros(next_base, dtype=np.uint64)

        def node_base(depth: int, prefixes: np.ndarray) -> np.ndarray:
            """Slot bases of the nodes with the given depth-``depth`` prefixes."""
            index = np.searchsorted(depth_prefixes[depth], prefixes)
            return depth_bases[depth] + index.astype(np.int64) * fanout

        # Child pointers: each depth-(d+1) node plugs into its parent.
        for depth in range(1, max_depth):
            child_prefixes = depth_prefixes[depth]
            parent_prefixes = child_prefixes >> np.uint64(2 * delta)
            slots = (child_prefixes & slot_mask).astype(np.int64)
            parents = node_base(depth - 1, parent_prefixes)
            child_bases = depth_bases[depth] + np.arange(len(child_prefixes)) * fanout
            pool[parents + slots] = (child_bases.astype(np.uint64)) << np.uint64(2)
        # Values: every cell fills ``expansion`` consecutive slots from its
        # run start.  Steps of 1 inside a run and a jump between runs, summed
        # in place, are the slot positions — with the repeated entries the
        # only arrays as long as the extended key set.
        ends = np.cumsum(expansion)
        positions = np.ones(self.num_keys, dtype=np.int64)
        positions[0] = run_starts[0]
        positions[ends[:-1]] = run_starts[1:] - (run_starts[:-1] + expansion[:-1] - 1)
        np.cumsum(positions, out=positions)
        pool[positions] = np.repeat(entries, expansion)
        self.pool = pool

        # Per-face roots and common prefixes: skip single-child chains above
        # the shallowest value.  A face is one sorted run of ids, so its
        # cells share a prefix exactly when its first and last do.
        face_bounds = np.searchsorted(
            ids, np.arange(7, dtype=np.uint64) << np.uint64(_FACE_SHIFT)
        )
        for face in range(6):
            lo, hi = int(face_bounds[face]), int(face_bounds[face + 1])
            if lo == hi:
                continue
            min_value_depth = int(value_depths[lo:hi].min())
            face_prefix = np.uint64(face)
            prefix_depth = 0
            for depth in range(1, min_value_depth):
                shift = np.uint64(_FACE_SHIFT - 2 * delta * depth)
                if ids[lo] >> shift != ids[hi - 1] >> shift:
                    break
                face_prefix = ids[lo] >> shift
                prefix_depth = depth
            root = node_base(prefix_depth, np.asarray([face_prefix], dtype=np.uint64))
            self._face_trees[face] = _FaceTree(
                root_base=int(root[0]),
                prefix_shift=_FACE_SHIFT - 2 * delta * prefix_depth,
                prefix_value=int(face_prefix),
                prefix_depth=prefix_depth,
            )

    def _index_roots(self) -> None:
        """Root tables of the face trees (one per distinct prefix depth,
        normally one) and the entry table of level-0 cells."""
        by_depth: dict[int, _RootTable] = {}
        for face, tree in self._face_trees.items():
            roots = by_depth.get(tree.prefix_depth)
            if roots is None:
                roots = by_depth[tree.prefix_depth] = _RootTable(
                    prefix_depth=tree.prefix_depth,
                    prefix_shift=np.uint64(tree.prefix_shift),
                    prefix_value=np.full(8, _NO_PREFIX, dtype=np.uint64),
                    root_base=np.zeros(8, dtype=np.int64),
                )
            roots.prefix_value[face] = tree.prefix_value
            roots.root_base[face] = tree.root_base
        self._root_tables = [by_depth[depth] for depth in sorted(by_depth)]
        self._face_entry = np.zeros(8, dtype=np.uint64)
        self._has_face_entry = np.zeros(8, dtype=bool)
        for face, entry in self._face_values.items():
            self._face_entry[face] = entry
            self._has_face_entry[face] = True

    # ------------------------------------------------------------------
    # Probe
    # ------------------------------------------------------------------

    def probe(self, query_ids: np.ndarray) -> np.ndarray:
        """Tagged entries for a batch of leaf cell ids (0 = false hit).

        This is Listing 2 of the paper, vectorized: per level, one gather
        from the node pool resolves every still-active query.
        """
        entries, _ = self._probe_impl(query_ids, instrument=False)
        return entries

    def probe_instrumented(self, query_ids: np.ndarray) -> tuple[np.ndarray, ProbeStats]:
        """Like :meth:`probe` but also reporting traversal statistics."""
        return self._probe_impl(query_ids, instrument=True)

    def _probe_impl(
        self, query_ids: np.ndarray, instrument: bool
    ) -> tuple[np.ndarray, ProbeStats]:
        ids = np.ascontiguousarray(query_ids, dtype=np.uint64)
        out = np.zeros(len(ids), dtype=np.uint64)
        depths = np.zeros(len(ids), dtype=np.int16) if instrument else None
        node_accesses = 0
        prefix_rejections = 0
        top = (ids >> np.uint64(_FACE_SHIFT)).astype(np.intp)
        # Arithmetic shifts of the signed view keep the low slot bits exact
        # and make ``slots`` an index array numpy gathers without a cast.
        signed_ids = ids.view(np.int64)
        for roots in self._root_tables:
            prefix = roots.prefix_value[top]
            accepted = (ids >> roots.prefix_shift) == prefix
            current = roots.root_base[top]
            current *= accepted
            if instrument:
                # Lanes on a face with a tree, minus the lanes it accepted.
                prefix_rejections += int(
                    np.count_nonzero(prefix != _NO_PREFIX)
                    - np.count_nonzero(accepted)
                )
            node_accesses += self._descend(
                signed_ids, current, roots.prefix_depth, out, depths
            )
        if self._face_values:
            np.copyto(out, self._face_entry[top], where=self._has_face_entry[top])
        stats = ProbeStats(
            depths=depths if instrument else np.zeros(0, dtype=np.int16),
            node_accesses=node_accesses,
            prefix_rejections=prefix_rejections,
        )
        return out, stats

    def _descend(
        self,
        ids: np.ndarray,
        current: np.ndarray,
        depth: int,
        out: np.ndarray,
        depths: np.ndarray | None,
    ) -> int:
        """Level-synchronous descent of lanes starting at ``current``.

        ``ids`` (int64 views of the leaf ids), ``current`` (node slot
        bases, 0 = the sentinel), ``out`` and ``depths`` are parallel.  A
        lane that resolves to a value or falls off the tree moves to the
        sentinel node, where every later gather reads the zero entry: no
        per-level test, scatter or compaction.  Only when fewer than
        ``1 / _COMPACT_BELOW`` of the lanes are still live does the
        descent continue on a compacted copy.  Returns the node accesses
        (live lanes summed over levels); ``depths``, when given, gains
        each lane's share of them.
        """
        pool = self.pool
        slot_mask = self.fanout - 1
        node_accesses = 0
        # A value at tree depth d is read while iterating at depth d-1, so
        # _max_value_depth bounds the loop; the shift stays >= 1 because
        # d * delta <= 30.
        while depth < self._max_value_depth:
            live = int(np.count_nonzero(current))
            if live == 0:
                break
            if live * _COMPACT_BELOW < len(current):
                keep = np.flatnonzero(current)
                found = np.zeros(live, dtype=np.uint64)
                steps = None if depths is None else np.zeros(live, dtype=np.int16)
                node_accesses += self._descend(
                    ids[keep], current[keep], depth, found, steps
                )
                # Live lanes have resolved nothing yet, so plain stores.
                out[keep] = found
                if depths is not None:
                    depths[keep] += steps
                break
            node_accesses += live
            if depths is not None:
                depths += current != 0
            depth += 1
            slots = ids >> (_FACE_SHIFT - 2 * self.delta * depth)
            slots &= slot_mask
            slots += current
            entries = pool[slots]
            is_value = (entries & _TAG_MASK) != _TAG_POINTER
            np.copyto(out, entries, where=is_value)
            entries >>= _TAG_BITS
            current = entries.view(np.int64)
            current *= ~is_value
        return node_accesses

    def probe_one(self, query_id: int) -> tuple[PolygonRef, ...]:
        """Scalar convenience probe returning decoded references."""
        entry = int(self.probe(np.asarray([query_id], dtype=np.uint64))[0])
        if entry == 0:
            return ()
        return self.lookup_table.decode_entry(entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"ACT{self.delta}"

    @property
    def size_bytes(self) -> int:
        """Modeled C++ footprint: node pool (incl. sentinel) + lookup table."""
        return int(self.pool.nbytes) + self.lookup_table.size_bytes

    def node_occupancy(self) -> float:
        """Fraction of non-empty slots across all real nodes."""
        if self.num_nodes == 0:
            return 0.0
        body = self.pool[self.fanout:]
        return float(np.count_nonzero(body)) / len(body)

    def describe(self) -> dict[str, object]:
        return {
            "variant": self.name,
            "fanout": self.fanout,
            "num_input_cells": self.num_input_cells,
            "num_keys": self.num_keys,
            "num_nodes": self.num_nodes,
            "size_bytes": self.size_bytes,
            "build_seconds": self.build_seconds,
            "occupancy": self.node_occupancy(),
            "faces": sorted(self._face_trees),
        }
