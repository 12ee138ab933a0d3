"""Vectorized numpy conversions between lat/lng arrays and cell ids.

The paper converts the 1.23 B taxi points to 64-bit cell ids before any
experiment.  Doing that point-by-point in Python would dominate every
benchmark, so this module re-implements the lat/lng -> leaf-cell-id pipeline
(projection + Hilbert translation) over whole numpy arrays.  It produces
bit-identical results to :meth:`repro.cells.cellid.CellId.from_lat_lng`
(verified property-based in ``tests/test_vectorized.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cells.hilbert import (
    LOOKUP_BITS,
    LOOKUP_IJ,
    LOOKUP_POS,
    MAX_LEVEL,
    SWAP_MASK,
)
from repro.cells.projections import MAX_SIZE

_POS_BITS = 61
_CHUNK_MASK = (1 << LOOKUP_BITS) - 1
_LOOKUP_POS_64 = LOOKUP_POS.astype(np.int64)
_LOOKUP_IJ_64 = LOOKUP_IJ.astype(np.int64)
#: Child k of a cell sits ``2 * k`` child-lsb steps above the first child.
_CHILD_STEPS = np.arange(4, dtype=np.uint64) * np.uint64(2)


def xyz_from_lat_lng(lats: np.ndarray, lngs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-sphere coordinates for degree arrays."""
    phi = np.radians(lats)
    theta = np.radians(lngs)
    cos_phi = np.cos(phi)
    return cos_phi * np.cos(theta), cos_phi * np.sin(theta), np.sin(phi)


def face_uv_from_xyz(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized cube-face projection."""
    ax = np.abs(x)
    ay = np.abs(y)
    az = np.abs(z)
    face = np.where(
        (ax >= ay) & (ax >= az),
        np.where(x > 0, 0, 3),
        np.where(ay >= az, np.where(y > 0, 1, 4), np.where(z > 0, 2, 5)),
    ).astype(np.int64)
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (unum, uden, vnum, vden) in enumerate((
        (y, x, z, x),        # face 0
        (-x, y, z, y),       # face 1
        (-x, z, -y, z),      # face 2
        (z, x, y, x),        # face 3
        (z, y, -x, y),       # face 4
        (-y, z, -x, z),      # face 5
    )):
        sel = face == f
        if np.any(sel):
            u[sel] = unum[sel] / uden[sel]
            v[sel] = vnum[sel] / vden[sel]
    return face, u, v


def st_from_uv(u: np.ndarray) -> np.ndarray:
    """Vectorized quadratic uv -> st transform."""
    # abs() keeps both sqrt arguments valid; the sign pick happens after.
    root = 0.5 * np.sqrt(1.0 + 3.0 * np.abs(u))
    return np.where(u >= 0.0, root, 1.0 - root)


def ij_from_st(s: np.ndarray) -> np.ndarray:
    """Vectorized discretization to leaf coordinates."""
    ij = np.floor(s * MAX_SIZE).astype(np.int64)
    return np.clip(ij, 0, MAX_SIZE - 1)


def leaf_ids_from_face_ij(face: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert translation: (face, i, j) -> leaf cell ids.

    Mirrors the 8-chunk table walk of ``hilbert.leaf_pos_from_ij`` with a
    table gather per chunk.  All intermediate math runs in int64 (positions
    use at most 60 bits) and the final assembly switches to uint64.
    """
    face = np.asarray(face, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    pos = np.zeros(face.shape, dtype=np.int64)
    bits = face & SWAP_MASK
    for k in range(7, -1, -1):
        index = bits
        index = index + (((i >> (k * LOOKUP_BITS)) & _CHUNK_MASK) << (LOOKUP_BITS + 2))
        index = index + (((j >> (k * LOOKUP_BITS)) & _CHUNK_MASK) << 2)
        looked = _LOOKUP_POS_64[index]
        pos |= (looked >> 2) << (k * 2 * LOOKUP_BITS)
        bits = looked & 3
    ids = (face.astype(np.uint64) << np.uint64(_POS_BITS)) \
        | (pos.astype(np.uint64) << np.uint64(1)) \
        | np.uint64(1)
    return ids


def face_ij_from_leaf_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized inverse of :func:`leaf_ids_from_face_ij`.

    Takes leaf cell ids (uint64) and returns ``(face, i, j)`` int64 arrays,
    mirroring the 8-chunk table walk of ``hilbert.ij_from_leaf_pos`` with a
    table gather per chunk (bit-identical to the scalar decode, verified in
    ``tests/test_vectorized.py``).
    """
    ids = np.asarray(ids, dtype=np.uint64)
    face = (ids >> np.uint64(_POS_BITS)).astype(np.int64)
    pos = ((ids & np.uint64((1 << _POS_BITS) - 1)) >> np.uint64(1)).astype(np.int64)
    i = np.zeros(ids.shape, dtype=np.int64)
    j = np.zeros(ids.shape, dtype=np.int64)
    bits = face & SWAP_MASK
    for k in range(7, -1, -1):
        # The top chunk only has 2 meaningful quadtree levels (30 = 7*4 + 2).
        nbits = MAX_LEVEL - 7 * LOOKUP_BITS if k == 7 else LOOKUP_BITS
        index = bits
        index = index + (
            ((pos >> (k * 2 * LOOKUP_BITS)) & ((1 << (2 * nbits)) - 1)) << 2
        )
        looked = _LOOKUP_IJ_64[index]
        i += (looked >> (LOOKUP_BITS + 2)) << (k * LOOKUP_BITS)
        j += ((looked >> 2) & _CHUNK_MASK) << (k * LOOKUP_BITS)
        bits = looked & 3
    return face, i, j


def cell_ids_from_lat_lng_arrays(lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Leaf cell ids (uint64) for parallel lat/lng degree arrays."""
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    x, y, z = xyz_from_lat_lng(lats, lngs)
    face, u, v = face_uv_from_xyz(x, y, z)
    i = ij_from_st(st_from_uv(u))
    j = ij_from_st(st_from_uv(v))
    return leaf_ids_from_face_ij(face, i, j)


def home_rows_from_entries(
    entry_rows: np.ndarray, entry_pids: np.ndarray, num_polygons: int
) -> np.ndarray:
    """Home-cell row per polygon id: the median covering entry in curve order.

    ``entry_rows``/``entry_pids`` are the flattened (cell, polygon-ref)
    entry arrays of a super covering, with rows indexing the *id-sorted*
    cell sequence — so each polygon's entries occupy a (mostly
    contiguous) band of rows along the space-filling curve, and the
    median entry row anchors the polygon at the center of its band.
    That cell is cut-independent, which is what lets the sharded serving
    layer assign every polygon one *home shard* before any cut points
    exist: the home shard is simply the shard the home cell lands in.

    The median is deliberately preferred over the minimum covering cell
    id: coverings that straddle a curve discontinuity (a face boundary)
    split into a tiny low-id band plus the main band, and a min-id
    anchor then collapses *every* polygon's home into the low-id sliver
    — observed on the bench ``neighborhoods`` dataset, where all homes
    landed in the first ~750 of 121k cells and owned-work cut placement
    degenerated.  The median lands in the main band and keeps owned
    work distributed like entry mass.

    Returns an ``int64`` array of length ``num_polygons`` holding each
    polygon's home row, ``-1`` for unreferenced ids (holes in the id
    space).
    """
    entry_rows = np.asarray(entry_rows, dtype=np.int64)
    entry_pids = np.asarray(entry_pids, dtype=np.int64)
    counts = np.bincount(entry_pids, minlength=num_polygons)
    if len(counts) > num_polygons:
        raise ValueError(
            f"entry pid {int(entry_pids.max())} out of range for "
            f"{num_polygons} polygons"
        )
    # Stable sort by pid keeps each polygon's rows in ascending row
    # order (entries arrive row-major), so the group's middle element is
    # its median entry row.
    order = np.argsort(entry_pids, kind="stable")
    rows_by_pid = entry_rows[order]
    starts = np.cumsum(counts) - counts
    referenced = counts > 0
    home = np.full(num_polygons, -1, dtype=np.int64)
    home[referenced] = rows_by_pid[(starts + counts // 2)[referenced]]
    return home


def owned_entry_mask(
    entry_shards: np.ndarray, entry_pids: np.ndarray, home_shards: np.ndarray
) -> np.ndarray:
    """Class-assignment kernel: is each (cell, ref) entry *owned*?

    An entry is owned when it lives in its polygon's home shard and
    *borrowed* when the polygon's covering straddles a cut into a
    foreign shard.  Every entry belongs to exactly one class (a boolean
    per entry), so the classes partition a plan's refinement work with
    no overlap and shard results need no cross-shard dedup.
    """
    entry_pids = np.asarray(entry_pids, dtype=np.int64)
    return np.asarray(home_shards)[entry_pids] == np.asarray(
        entry_shards, dtype=np.int64
    )


def range_bounds_from_cell_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``CellId.range_min``/``range_max`` for a cell-id array.

    A cell id encodes its level in the position of its lowest set bit
    (``lsb``); the leaf descendants of the cell occupy the contiguous
    Hilbert-position range ``[id - (lsb - 1), id + (lsb - 1)]``.  These
    bounds are what the sharded serving layer partitions on: cut points
    between them split the curve into per-shard leaf-id ranges, and a
    cell compares against a cut point by its whole range, never just its
    own id.  Bit-identical to the scalar ``CellId`` methods (verified in
    ``tests/test_vectorized.py``).
    """
    ids = np.asarray(ids, dtype=np.uint64)
    # Two's-complement trick on uint64: -id wraps to 2**64 - id, so
    # id & -id isolates the lowest set bit exactly like the scalar path.
    lsb = ids & (np.uint64(0) - ids)
    offset = lsb - np.uint64(1)
    return ids - offset, ids + offset


def levels_from_cell_ids(ids: np.ndarray) -> np.ndarray:
    """Vectorized ``CellId.level`` (int64) for a cell-id array."""
    ids = np.asarray(ids, dtype=np.uint64)
    lsb = ids & (np.uint64(0) - ids)
    # lsb == 1 << (2 * (MAX_LEVEL - level)); log2 is exact on powers of two.
    return MAX_LEVEL - (np.log2(lsb.astype(np.float64)) / 2.0).astype(np.int64)


def child_cell_ids(ids: np.ndarray) -> np.ndarray:
    """The four children of every (non-leaf) cell id: ``(n, 4)``, ascending."""
    ids = np.asarray(ids, dtype=np.uint64)
    step = (ids & (np.uint64(0) - ids)) >> np.uint64(2)
    first = ids - np.uint64(3) * step
    return first[:, None] + _CHILD_STEPS[None, :] * step[:, None]
