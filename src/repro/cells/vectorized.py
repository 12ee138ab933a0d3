"""Vectorized numpy conversions between lat/lng arrays and cell ids.

The paper converts the 1.23 B taxi points to 64-bit cell ids before any
experiment.  Doing that point-by-point in Python would dominate every
benchmark, so this module re-implements the lat/lng -> leaf-cell-id pipeline
(projection + Hilbert translation) over whole numpy arrays.  It produces
bit-identical results to :meth:`repro.cells.cellid.CellId.from_lat_lng`
(verified property-based in ``tests/test_vectorized.py``).

The point path is one in-place pipeline of two stages.
:func:`face_ij_from_lat_lng_arrays` writes ``x, y, z`` and their negations
into one buffer, picks the face by comparisons on ``abs``, fetches the u
and v numerators with one flat gather each through 6-entry row tables (no
per-face masks), and runs the quadratic transform and the discretization
in place on both coordinates at once.  :func:`leaf_ids_from_face_ij`
walks the Hilbert curve over *byte lanes*: the nibbles of i and j are
interleaved into the bytes of one ``uint64`` per point, and each of the
eight steps reads its byte and writes its position byte through ``uint8``
views around one gather from the 1024-entry :data:`WALK` table.  The
stage-at-a-time pipeline this replaced lives on in ``tests/oracles.py`` as
the parity oracle.
"""

from __future__ import annotations

import math

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
_RADIANS_PER_DEGREE = math.pi / 180.0
_CHUNK_MASK = (1 << LOOKUP_BITS) - 1
_LOOKUP_IJ_64 = LOOKUP_IJ.astype(np.int64)
#: Child k of a cell sits ``2 * k`` child-lsb steps above the first child.
_CHILD_STEPS = np.arange(4, dtype=np.uint64) * np.uint64(2)

# Cube-face projection by face: u and v numerators as rows of the signed
# coordinate buffer ``[x, y, z, -x, -y, -z]`` (the denominator is row
# ``face % 3``) — the six cases of ``projections.xyz_to_face_uv``.
_UV_ROW = np.array([[1, 3, 3, 2, 2, 4], [2, 2, 4, 1, 3, 3]], dtype=np.intp)

#: One step of the Hilbert walk: ``WALK[orientation * 256 + i_nibble * 16
#: + j_nibble]`` is ``next_orientation * 256 + position_byte`` —
#: ``LOOKUP_POS`` re-keyed so the orientation sits above a byte of
#: interleaved coordinates instead of below it.
_ORIENTATION_BITS = 0x300
_lookup_pos = LOOKUP_POS.astype(np.intp).reshape(256, 4).T  # [orientation, ij]
WALK = (((_lookup_pos & 3) << 8) | (_lookup_pos >> 2)).reshape(1024)
del _lookup_pos
#: ``(face << 61) | 1`` per face: the bits of a leaf id around its position.
_FACE_AND_MARKER = (np.arange(6, dtype=np.uint64) << np.uint64(_POS_BITS)) | np.uint64(1)
#: The walk reads and writes ids through byte views: pin the byte order.
_U64 = np.dtype("<u8")


def xyz_from_lat_lng(
    lats: np.ndarray, lngs: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Unit-sphere coordinates for degree arrays: one ``(3, ...)`` buffer
    (``out``, when given) that unpacks as ``x, y, z``."""
    xyz = np.empty((3,) + np.shape(lats)) if out is None else out
    # x * (pi / 180) is np.radians (and math.radians) bit for bit, without
    # the scalar ufunc loop: 3.4 instead of 16.9 us per 8,192 values.
    phi = np.multiply(lats, _RADIANS_PER_DEGREE, out=xyz[2])
    theta = np.multiply(lngs, _RADIANS_PER_DEGREE, out=xyz[1])
    cos_phi = np.cos(phi)
    np.multiply(cos_phi, np.cos(theta), out=xyz[0])
    np.sin(theta, out=theta)
    theta *= cos_phi
    np.sin(phi, out=phi)
    return xyz


def face_ij_from_lat_lng_arrays(
    lats: np.ndarray, lngs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cube face and leaf ``(i, j)`` coordinates of degree arrays, flat.

    The projection every curve shares, bit-identical point by point to
    ``xyz_to_face_uv`` + ``uv_to_st`` + ``st_to_ij`` of
    :mod:`repro.cells.projections`.  The one place point coordinates
    enter the cell pipeline, so the shapes are checked here.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    if lats.shape != lngs.shape:
        raise ValueError(
            f"lats and lngs must have the same shape, got {lats.shape} and {lngs.shape}"
        )
    n = lats.size
    signed = np.empty((6, n))
    xyz = xyz_from_lat_lng(lats.reshape(n), lngs.reshape(n), out=signed[:3])
    np.negative(xyz, out=signed[3:])
    flat = signed.reshape(6 * n)
    lanes = np.arange(n)
    # The largest |component| picks the axis (ties: x over y over z) and
    # its sign the face; `> 0` is the positive one, so NaN lands on face 5.
    ax, ay, az = np.abs(xyz)
    x_major = ax >= ay
    x_major &= ax >= az
    face = np.subtract(2, ay >= az, dtype=np.intp)
    face *= ~x_major
    index = face * n
    index += lanes
    major = flat[index]
    face += 3
    face -= np.multiply(major > 0.0, 3, dtype=np.intp)
    # u and v: one flat gather each for the numerators, then both rows
    # together through the quadratic transform.
    uv = np.empty((2, n))
    for row, offsets in enumerate(_UV_ROW * n):
        np.take(offsets, face, out=index)
        index += lanes
        np.take(flat, index, out=uv[row])
    uv /= major
    # st = 0.5 * sqrt(1 + 3|uv|), mirrored for negative uv; ij = floor(st *
    # MAX_SIZE) clamped.  st is never negative, so the cast's truncation is
    # the floor (and NaN casts as it always did, then clamps to 0).
    mirrored = ~(uv >= 0.0)
    np.abs(uv, out=uv)
    uv *= 3.0
    uv += 1.0
    np.sqrt(uv, out=uv)
    uv *= 0.5
    np.subtract(1.0, uv, out=uv, where=mirrored)
    uv *= MAX_SIZE
    ij = uv.astype(np.int64)
    np.clip(ij, 0, MAX_SIZE - 1, out=ij)
    return face, ij[0], ij[1]


def _nibbles_to_bytes(value: np.ndarray) -> np.ndarray:
    """Spread the eight nibbles of a 32-bit value to the low nibbles of
    the eight bytes of a ``uint64``."""
    x = value.astype(_U64)
    x |= x << np.uint64(16)
    x &= np.uint64(0x0000FFFF0000FFFF)
    x |= x << np.uint64(8)
    x &= np.uint64(0x00FF00FF00FF00FF)
    x |= x << np.uint64(4)
    x &= np.uint64(0x0F0F0F0F0F0F0F0F)
    return x


def leaf_ids_from_face_ij(face: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert translation: (face, i, j) -> leaf cell ids.

    The 8-chunk table walk of ``hilbert.leaf_pos_from_ij`` over *byte
    lanes*: byte k of ``steps`` holds chunk k of i and j interleaved
    (``iiiijjjj``), and each step reads its byte through a ``uint8`` view,
    looks ``orientation | byte`` up in :data:`WALK`, and stores the
    position byte through a ``uint8`` view of the result — no shifts or
    masks per chunk.
    """
    face = np.asarray(face, dtype=np.intp)
    shape = face.shape
    n = face.size
    steps = _nibbles_to_bytes(np.asarray(i).reshape(n))
    steps <<= np.uint64(LOOKUP_BITS)
    steps |= _nibbles_to_bytes(np.asarray(j).reshape(n))
    step_bytes = steps.view(np.uint8).reshape(n, 8)
    face = face.reshape(n)
    ids = np.empty(n, dtype=_U64)
    id_bytes = ids.view(np.uint8).reshape(n, 8)
    orientation = (face & SWAP_MASK) << 8
    index = np.empty(n, dtype=np.intp)
    for k in range(7, -1, -1):
        np.bitwise_or(step_bytes[:, k], orientation, out=index)
        orientation = WALK[index]
        id_bytes[:, k] = orientation  # the cast keeps the position byte
        orientation &= _ORIENTATION_BITS
    ids <<= np.uint64(1)
    ids |= _FACE_AND_MARKER[face]
    return ids.astype(np.uint64, copy=False).reshape(shape)


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
    face, i, j = face_ij_from_lat_lng_arrays(lats, lngs)
    # `[()]`: an array for array input, a scalar for 0-d input.
    return leaf_ids_from_face_ij(face, i, j).reshape(np.shape(lats))[()]


def range_bounds_from_cell_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``CellId.range_min``/``range_max`` for a cell-id array.

    A cell id encodes its level in the position of its lowest set bit
    (``lsb``); the leaf descendants of the cell occupy the contiguous
    Hilbert-position range ``[id - (lsb - 1), id + (lsb - 1)]``.
    Bit-identical to the scalar ``CellId`` methods (verified in
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


def parent_ids_at_level(ids: np.ndarray, level: int) -> np.ndarray:
    """Vectorized ``CellId.parent(level)`` for cell ids at ``level`` or deeper."""
    lsb = 1 << (2 * (MAX_LEVEL - level))
    return (np.asarray(ids, dtype=np.uint64) & ~np.uint64(lsb - 1)) | np.uint64(lsb)


def child_cell_ids(ids: np.ndarray) -> np.ndarray:
    """The four children of every (non-leaf) cell id: ``(n, 4)``, ascending."""
    ids = np.asarray(ids, dtype=np.uint64)
    step = (ids & (np.uint64(0) - ids)) >> np.uint64(2)
    first = ids - np.uint64(3) * step
    return first[:, None] + _CHILD_STEPS[None, :] * step[:, None]


#: Bits at even positions: the lsbs of valid cell ids, the sizes (in
#: leaves) of aligned cells.
_EVEN_BITS = np.uint64(0x5555555555555555)
_LEAVES_PER_FACE = np.uint64(1) << np.uint64(2 * MAX_LEVEL)


def _power_of_four_at_most(power_of_two: np.ndarray) -> np.ndarray:
    """Round powers of two down to powers of four."""
    odd = (power_of_two & _EVEN_BITS) == 0
    return power_of_two >> odd.astype(np.uint64)


def tile_leaf_ranges(lo: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tile half-open leaf-id intervals ``[lo, end)`` with maximal cells.

    ``lo`` and ``end`` are leaf cell ids (``end`` is the leaf after the
    interval's last one, ``range_max + 2``); an interval with
    ``lo >= end`` is empty.  Returns ``(cell ids, owners)``: the unique
    coarsest cells that exactly tile every interval, and for each the
    index of the interval it came from.  Every round all still-open
    intervals emit the largest aligned cell starting at their ``lo``
    that fits: ``4 ** min(trailing-zero pairs of lo, floor(log4(span)))``
    leaves.  This is the one gap-tiling kernel of the build — the
    difference cells of the super covering's conflict resolution
    (Figure 4 of the paper) and the true-hit fill of the precision
    refinement are both "the uncovered remainder of a cell".
    """
    # Leaf positions (face bits included) are < 2**63: no wrap below.
    start = np.asarray(lo, dtype=np.uint64) >> np.uint64(1)
    stop = np.asarray(end, dtype=np.uint64) >> np.uint64(1)
    owners = np.flatnonzero(start < stop)
    start, stop = start[owners], stop[owners]
    cells: list[np.ndarray] = []
    cell_owners: list[np.ndarray] = []
    while len(owners):
        aligned = start & (np.uint64(0) - start)
        aligned[aligned == 0] = _LEAVES_PER_FACE  # position 0 of face 0
        aligned = np.minimum(_power_of_four_at_most(aligned), _LEAVES_PER_FACE)
        span = stop - start
        for shift in (1, 2, 4, 8, 16, 32):  # smear the top bit downwards
            span |= span >> np.uint64(shift)
        size = np.minimum(aligned, _power_of_four_at_most(span - (span >> np.uint64(1))))
        cells.append((start << np.uint64(1)) + size)
        cell_owners.append(owners)
        start = start + size
        open_ = np.flatnonzero(start < stop)
        start, stop, owners = start[open_], stop[open_], owners[open_]
    if not cells:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return np.concatenate(cells), np.concatenate(cell_owners)
