"""Curve independence: re-encode cell ids under the Z (Morton) curve.

Section 2 of the paper states that the approach does not depend on a
concrete space-filling curve — any enumeration where children share their
parent's bit prefix works.  This module makes that claim executable: it
converts Hilbert-encoded cell ids (the default) to Morton-encoded ids with
the identical 64-bit layout (face bits, two bits per level, trailing
marker).  Because the conversion maps every cell to the *same geometric
cell* under a different enumeration, nesting and disjointness are
preserved, so a super covering can be re-encoded wholesale and indexed by
an unchanged ACT; only the query points must be converted with the same
curve.
"""

from __future__ import annotations

import numpy as np

from repro.cells import hilbert
from repro.cells.cellid import MAX_LEVEL, POS_BITS, CellId
from repro.cells.vectorized import (
    face_ij_from_lat_lng_arrays,
    face_ij_from_leaf_ids,
    range_bounds_from_cell_ids,
)
from repro.core.super_covering import SuperCovering
from repro.util.bits import U64_MASK


def cell_id_to_morton(raw_id: int) -> int:
    """Re-encode one Hilbert cell id under the Morton enumeration."""
    cell = CellId(raw_id)
    face, i, j = cell.to_face_ij()
    level = cell.level
    pos = hilbert.leaf_pos_from_ij_morton(face, i, j)
    raw = (face << POS_BITS) | (pos << 1) | 1
    lsb = 1 << (2 * (MAX_LEVEL - level))
    return ((raw & (~(lsb - 1) & U64_MASK)) | lsb) & U64_MASK


def morton_leaf_ids_from_face_ij(
    face: np.ndarray, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Vectorized Morton leaf ids (bit interleaving via parallel deposit)."""
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    pos = _interleave30(i) << np.uint64(1) | _interleave30(j)
    return (
        (np.asarray(face, dtype=np.uint64) << np.uint64(POS_BITS))
        | (pos << np.uint64(1))
        | np.uint64(1)
    )


def _interleave30(value: np.ndarray) -> np.ndarray:
    """Spread the low 30 bits of ``value`` to even bit positions."""
    x = value & np.uint64((1 << 30) - 1)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def morton_cell_ids_from_lat_lng_arrays(
    lats: np.ndarray, lngs: np.ndarray
) -> np.ndarray:
    """Morton-encoded leaf cell ids for point arrays (query-side twin of
    :func:`repro.cells.vectorized.cell_ids_from_lat_lng_arrays`)."""
    face, i, j = face_ij_from_lat_lng_arrays(lats, lngs)
    return morton_leaf_ids_from_face_ij(face, i, j).reshape(np.shape(lats))


def reencode_super_covering_morton(covering: SuperCovering) -> SuperCovering:
    """A Morton-enumerated twin of ``covering`` (same cells, same refs)."""
    ids = covering.cell_ids
    leaves, _ = range_bounds_from_cell_ids(ids)
    lsb = ids & (np.uint64(0) - ids)
    morton = morton_leaf_ids_from_face_ij(*face_ij_from_leaf_ids(leaves))
    # Clearing the bits below the level marker snaps the leaf to the
    # cell's minimum (i, j) corner, whichever corner the Hilbert curve
    # enters the cell at.
    return SuperCovering.attach(
        (morton & ~(lsb - np.uint64(1))) | lsb,
        covering.ref_offsets,
        covering.packed_refs,
    )
