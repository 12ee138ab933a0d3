"""Deduplicated polygon-reference lists and tagged-entry encoding.

Every super-covering cell maps to a set of polygon references.  The
Adaptive Cell Trie (and all the alternative cell stores) represent that set
as a single 64-bit *tagged entry* whose two least-significant bits select
among four cases (Section 3.1.2 of the paper):

===  =============================================================
tag  meaning
===  =============================================================
0    pointer to a child node (``0`` itself is the sentinel = miss)
1    one inlined polygon reference (31-bit packed value)
2    two inlined polygon references (2 x 31-bit packed values)
3    offset into the lookup table (three or more references)
===  =============================================================

The lookup table itself is one flat ``uint32`` array.  An entry at offset
``o`` is ``[num_true, true ids..., num_candidate, candidate ids...]``.
Cells frequently share reference sets, so identical sets are stored once.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.refs import PolygonRef, validate_polygon_id
from repro.core.super_covering import SuperCovering

TAG_POINTER = 0
TAG_ONE_REF = 1
TAG_TWO_REFS = 2
TAG_OFFSET = 3

SENTINEL_ENTRY = 0

_VALUE_MASK = (1 << 31) - 1


def offset_counts(
    table: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(num_true, num_candidate)`` of the reference lists at ``offsets``.

    ``table`` is a lookup table's flat ``uint32`` array, ``offsets`` an
    ``int64`` array of list offsets into it.
    """
    num_true = table[offsets].astype(np.int64)
    num_cand = table[offsets + 1 + num_true].astype(np.int64)
    return num_true, num_cand


def expand_offsets(
    table: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand the reference lists at ``offsets`` all at once.

    Returns ``(which, polygon ids, interior flags)``: ``which[i]`` is the
    position in ``offsets`` the ``i``-th reference belongs to.  Lists
    come out in the order of ``offsets``, each one id-sorted exactly as
    :meth:`LookupTable.decode_offset` returns it.
    """
    num_true, num_cand = offset_counts(table, offsets)
    sizes = num_true + num_cand
    which = np.repeat(np.arange(len(offsets)), sizes)
    within = np.arange(len(which)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    interior = within < num_true[which]
    # Ids follow the num_true word; candidate ids the num_cand word too.
    ids = table[offsets[which] + 1 + within + ~interior].astype(np.int64)
    # Each half is id-sorted; a stable sort on (list, id) merges the two.
    order = np.argsort((which << 32) | ids, kind="stable")
    return which, ids[order], interior[order]


class LookupTable:
    """Builds and serves the shared reference-list array.

    A built table grows through :meth:`encode_covering` (a whole covering
    at once) and :meth:`encode` (one reference set); :meth:`attach` wraps
    an already-packed ``uint32`` array (a view into a flat snapshot blob)
    read-only, and :meth:`extending` starts a table after another one.
    All serve the probe side from :attr:`array`.
    """

    def __init__(self) -> None:
        self._data: list[int] | None = []  # None: attached, read-only
        #: Interned lists by their packed references, in canonical order.
        self._offsets: dict[tuple[int, ...], int] = {}
        self._frozen: np.ndarray | None = None
        #: Another table's array this one continues (see :meth:`extending`).
        self._prefix = np.zeros(0, dtype=np.uint32)

    @classmethod
    def attach(cls, array: np.ndarray) -> "LookupTable":
        """A read-only table over a packed array — a view, never a copy."""
        table = cls()
        table._data = None
        table._frozen = array
        return table

    @classmethod
    def extending(cls, base: "LookupTable") -> "LookupTable":
        """A table that continues ``base``: every entry of ``base`` decodes
        the same in it, and lists encoded here are stored after ``base``'s.

        ``base``'s array is read once, here; ``size_bytes`` and ``len``
        count only the lists stored in this table.
        """
        table = cls()
        table._prefix = base.array
        return table

    # ------------------------------------------------------------------
    # Build side
    # ------------------------------------------------------------------

    def encode(self, refs: Sequence[PolygonRef]) -> int:
        """Return the tagged entry for a (canonical) reference set."""
        if self._data is None:
            raise TypeError("an attached lookup table is read-only")
        if not refs:
            raise ValueError("a super-covering cell must reference >= 1 polygon")
        for ref in refs:
            validate_polygon_id(ref.polygon_id)
        if len(refs) == 1:
            return (refs[0].packed() << 2) | TAG_ONE_REF
        if len(refs) == 2:
            return (
                (refs[0].packed() << 2)
                | (refs[1].packed() << 33)
                | TAG_TWO_REFS
            )
        return (self._intern(tuple(ref.packed() for ref in refs)) << 2) | TAG_OFFSET

    def encode_covering(self, covering: SuperCovering) -> np.ndarray:
        """The tagged entry of every cell of ``covering`` (``uint64``, in
        cell-id order) — the one entry encoder of every cell store.

        One- and two-reference rows are inlined arithmetically; longer
        rows are interned once per *distinct* row, in ascending cell-id
        order of their first occurrence, so the table's layout depends on
        the covering alone.
        """
        if self._data is None:
            raise TypeError("an attached lookup table is read-only")
        offsets, packed = covering.ref_offsets, covering.packed_refs
        counts = np.diff(offsets)
        if np.any(counts == 0):
            raise ValueError("a super-covering cell must reference >= 1 polygon")
        if len(packed) and int(packed.max()) > _VALUE_MASK:
            raise ValueError(
                f"polygon id {int(packed.max()) >> 1} outside the 30-bit "
                "range the index supports"
            )
        first = packed[offsets[:-1]].astype(np.uint64)
        entries = (first << np.uint64(2)) | np.uint64(TAG_ONE_REF)
        two = np.flatnonzero(counts == 2)
        entries[two] = (
            (first[two] << np.uint64(2))
            | (packed[offsets[two] + 1].astype(np.uint64) << np.uint64(33))
            | np.uint64(TAG_TWO_REFS)
        )
        longer = np.flatnonzero(counts > 2)
        if len(longer):
            # Rows padded to one width (no real reference is all ones), so
            # one unique() finds the distinct rows and where each first
            # occurs.
            width = int(counts[longer].max())
            column = np.arange(width)
            padded = np.full((len(longer), width), 0xFFFFFFFF, dtype=np.uint32)
            inside = column < counts[longer, None]
            padded[inside] = packed[(offsets[longer, None] + column)[inside]]
            rows, first_seen, which = np.unique(
                padded, axis=0, return_index=True, return_inverse=True
            )
            list_offsets = np.empty(len(rows), dtype=np.uint64)
            for row in np.argsort(first_seen).tolist():
                refs = rows[row, : counts[longer[first_seen[row]]]]
                list_offsets[row] = self._intern(tuple(refs.tolist()))
            entries[longer] = (list_offsets[which.ravel()] << np.uint64(2)) | np.uint64(
                TAG_OFFSET
            )
        return entries

    def _intern(self, refs: tuple[int, ...]) -> int:
        """Offset of the list of packed references ``refs`` (stored once)."""
        offset = self._offsets.get(refs)
        if offset is not None:
            return offset
        offset = len(self._prefix) + len(self._data)
        if offset > _VALUE_MASK:
            raise OverflowError("lookup table exceeds the 31-bit offset budget")
        true_ids = [value >> 1 for value in refs if value & 1]
        cand_ids = [value >> 1 for value in refs if not value & 1]
        self._data.append(len(true_ids))
        self._data.extend(true_ids)
        self._data.append(len(cand_ids))
        self._data.extend(cand_ids)
        self._offsets[refs] = offset
        self._frozen = None
        return offset

    # ------------------------------------------------------------------
    # Probe side
    # ------------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The flat ``uint32`` array (rebuilt lazily after inserts)."""
        if self._data is not None and (
            self._frozen is None
            or len(self._frozen) != len(self._prefix) + len(self._data)
        ):
            self._frozen = np.concatenate(
                (self._prefix, np.asarray(self._data, dtype=np.uint32))
            )
        return self._frozen

    def decode_offset(self, offset: int) -> tuple[PolygonRef, ...]:
        """Reference set stored at ``offset``, in canonical (id-sorted) order."""
        data = self.array
        num_true = int(data[offset])
        cursor = offset + 1
        refs = [
            PolygonRef(pid, True)
            for pid in data[cursor : cursor + num_true].tolist()
        ]
        cursor += num_true
        num_cand = int(data[cursor])
        cursor += 1
        refs.extend(
            PolygonRef(pid, False)
            for pid in data[cursor : cursor + num_cand].tolist()
        )
        refs.sort(key=lambda ref: ref.polygon_id)
        return tuple(refs)

    def decode_entry(self, entry: int) -> tuple[PolygonRef, ...]:
        """Reference set for any non-pointer tagged entry."""
        tag = entry & 3
        if tag == TAG_ONE_REF:
            return (PolygonRef.from_packed((entry >> 2) & _VALUE_MASK),)
        if tag == TAG_TWO_REFS:
            return (
                PolygonRef.from_packed((entry >> 2) & _VALUE_MASK),
                PolygonRef.from_packed((entry >> 33) & _VALUE_MASK),
            )
        if tag == TAG_OFFSET:
            return self.decode_offset(entry >> 2)
        raise ValueError(f"entry {entry:#x} is a pointer, not a value")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return 4 * len(self)

    def __len__(self) -> int:
        return len(self._frozen if self._data is None else self._data)
