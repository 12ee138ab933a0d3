"""Entry rows: what a probe returns, decoded once per store.

Every cell store keeps one table of the distinct tagged entries it can
return, ascending after the miss entry 0 (:func:`entry_rows`), and its
probe answers with a *row* of that table per point instead of the entry
itself.  A covering has a few thousand distinct entries (3,476 on the
60 m neighborhoods index) however many points are joined, so everything
the join needs of an entry is computed once per row, when the store is
built or attached: :class:`RowTable` runs :func:`decode_entries` over the
entry table and keeps the result as a CSR of polygon ids per row, with
each row's size, true-hit count and ``expensive`` flag beside it.  A
batch then counts per distinct row (:mod:`repro.core.joins`) and expands
(point, polygon) pairs only where it must.

``decode_entries`` is the decoder of the tag layout
(:mod:`repro.core.lookup_table`); the join kernels no longer run it per
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lookup_table import (
    TAG_OFFSET,
    TAG_ONE_REF,
    TAG_TWO_REFS,
    LookupTable,
    expand_offsets,
)

_VALUE_MASK = np.uint64((1 << 31) - 1)


def decode_entries(
    entries: np.ndarray, table: LookupTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand tagged entries into (point index, polygon id, is_true)
    arrays; ``table`` is the lookup table of the store they came from."""
    tags = entries & np.uint64(3)
    points_parts: list[np.ndarray] = []
    pids_parts: list[np.ndarray] = []
    true_parts: list[np.ndarray] = []

    one_idx = np.nonzero(tags == np.uint64(TAG_ONE_REF))[0]
    if one_idx.size:
        values = (entries[one_idx] >> np.uint64(2)) & _VALUE_MASK
        points_parts.append(one_idx)
        pids_parts.append((values >> np.uint64(1)).astype(np.int64))
        true_parts.append((values & np.uint64(1)).astype(bool))

    two_idx = np.nonzero(tags == np.uint64(TAG_TWO_REFS))[0]
    if two_idx.size:
        first = (entries[two_idx] >> np.uint64(2)) & _VALUE_MASK
        second = (entries[two_idx] >> np.uint64(33)) & _VALUE_MASK
        points_parts.append(np.repeat(two_idx, 2))
        interleaved_pids = np.empty(two_idx.size * 2, dtype=np.int64)
        interleaved_pids[0::2] = (first >> np.uint64(1)).astype(np.int64)
        interleaved_pids[1::2] = (second >> np.uint64(1)).astype(np.int64)
        pids_parts.append(interleaved_pids)
        interleaved_true = np.empty(two_idx.size * 2, dtype=bool)
        interleaved_true[0::2] = (first & np.uint64(1)).astype(bool)
        interleaved_true[1::2] = (second & np.uint64(1)).astype(bool)
        true_parts.append(interleaved_true)

    offset_idx = np.nonzero(tags == np.uint64(TAG_OFFSET))[0]
    if offset_idx.size:
        offsets = (entries[offset_idx] >> np.uint64(2)).astype(np.int64)
        # Pairs are grouped by offset, then point, then polygon id.
        by_offset = np.argsort(offsets, kind="stable")
        which, ids, interior = expand_offsets(
            table.array, offsets[by_offset]
        )
        points_parts.append(offset_idx[by_offset][which])
        pids_parts.append(ids)
        true_parts.append(interior)

    if not points_parts:
        empty_i = np.zeros(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.zeros(0, dtype=bool)
    return (
        np.concatenate(points_parts),
        np.concatenate(pids_parts),
        np.concatenate(true_parts),
    )


def entry_rows(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(table, rows)``: the distinct entries of ``entries``, ascending
    after the miss entry 0, and each entry's row in that table — the
    entry table of every cell store."""
    table, rows = np.unique(
        np.concatenate((np.zeros(1, dtype=np.uint64), entries)),
        return_inverse=True,
    )
    return table, rows[1:].astype(np.intp)


def ragged_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Every position of the slices ``[starts[i], starts[i] + sizes[i])``,
    slice after slice."""
    # Array methods, not the module functions: a join of one point
    # makes a handful of these calls, and their dispatch is its cost.
    ends = sizes.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + sizes).repeat(sizes)


@dataclass(frozen=True)
class RowTable:
    """The rows of one store's entry table, decoded once.

    Row ``r`` stands for the tagged entry ``entries[r]`` (row 0 is the
    miss entry 0): its references are ``pids[starts[r]:starts[r + 1]]``,
    interior (true-hit) ones first, each half ascending by polygon id,
    with ``interior`` flagging them.  ``sizes`` and ``true_counts`` count
    them per row, and ``expensive[r]`` says whether the row holds a
    candidate reference, i.e. sends its points into refinement.
    """

    entries: np.ndarray  # uint64
    starts: np.ndarray  # int64, len(entries) + 1
    pids: np.ndarray  # int64
    interior: np.ndarray  # bool
    sizes: np.ndarray  # int64
    true_counts: np.ndarray  # int64
    expensive: np.ndarray  # bool

    @classmethod
    def decode(cls, entries: np.ndarray, table: LookupTable) -> RowTable:
        """The row table of ``entries`` (decoded against ``table``)."""
        entries = np.asarray(entries, dtype=np.uint64)
        rows, pids, interior = decode_entries(entries, table)
        order = np.lexsort((pids, ~interior, rows))
        rows, pids, interior = rows[order], pids[order], interior[order]
        sizes = np.bincount(rows, minlength=len(entries))
        true_counts = np.bincount(rows[interior], minlength=len(entries))
        starts = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        return cls(
            entries=entries,
            starts=starts,
            pids=pids,
            interior=interior,
            sizes=sizes,
            true_counts=true_counts,
            expensive=sizes > true_counts,
        )

    def __len__(self) -> int:
        return len(self.entries)

    def extended(self, more: RowTable) -> RowTable:
        """This table followed by the rows of ``more``."""
        return RowTable(
            entries=np.concatenate((self.entries, more.entries)),
            starts=np.concatenate((self.starts, more.starts[1:] + self.starts[-1])),
            pids=np.concatenate((self.pids, more.pids)),
            interior=np.concatenate((self.interior, more.interior)),
            sizes=np.concatenate((self.sizes, more.sizes)),
            true_counts=np.concatenate((self.true_counts, more.true_counts)),
            expensive=np.concatenate((self.expensive, more.expensive)),
        )

    def refs(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(polygon ids, interior flags)`` of one row."""
        lo, hi = int(self.starts[row]), int(self.starts[row + 1])
        return self.pids[lo:hi], self.interior[lo:hi]


class RowStore:
    """A cell store that probes to rows of its :class:`RowTable`.

    Subclasses set ``rows`` and implement :meth:`probe_rows`; the
    tagged-entry :meth:`probe` is derived.  ``rows`` is read after the
    probe, so a store whose table grows (the dynamic overlay) hands out
    a snapshot that holds every row the probe returned.
    """

    rows: RowTable

    def probe_rows(self, query_ids: np.ndarray) -> np.ndarray:
        """The row of every leaf cell id (``intp``; row 0 = miss)."""
        raise NotImplementedError

    def probe(self, query_ids: np.ndarray) -> np.ndarray:
        """Tagged entries for a batch of leaf cell ids (0 = miss)."""
        rows = self.probe_rows(query_ids)
        return self.rows.entries.take(rows)
