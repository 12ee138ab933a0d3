"""Vectorized numpy conversions between lat/lng arrays and cell ids.

The paper converts the 1.23 B taxi points to 64-bit cell ids before any
experiment.  Doing that point-by-point in Python would dominate every
benchmark, so this module re-implements the lat/lng -> leaf-cell-id pipeline
(projection + Hilbert translation) over whole numpy arrays.  It produces
bit-identical results to :meth:`repro.cells.cellid.CellId.from_lat_lng`
(verified property-based in ``tests/test_vectorized.py``).

The point path is one in-place pipeline of two stages.
:func:`face_ij_from_lat_lng_arrays` projects from two tangents: this
numpy computes float64 ``np.sin`` and ``np.cos`` through scalar libm
(13-16 ns per element on a 2-vCPU Xeon) but ``np.tan`` through SIMD
(about 3 ns).  With ``b = tan(theta / 2)`` a point is the positive
multiple ``x : y : z = 1 - b^2 : 2b : tan(phi) (1 + b^2)`` of its unit
vector, and face, u and v are ratios of its coordinates, so ``tan(phi)``
and ``b`` are all the trigonometry a point needs.  The kernel writes
``x, y, z, -x, -y`` into one buffer, picks the face by comparisons on
``abs``, fetches the u and v numerators with one flat gather through
6-entry row tables (no per-face masks), and runs the quadratic transform
in place on both coordinates at once.

The tangents round differently from the unit vector, but the ids stay
bit-identical: ``i`` is the integer part of ``st * 2**30``, so the two
roundings can only disagree where that value lies within their error of
an integer.  Every lane within :data:`_GUARD` (4e-6 leaf units) of an
integer, in either coordinate, is recomputed the exact way: from
:func:`xyz_from_lat_lng`'s unit vector (four trig calls), then the same
face, u, v and st code.  Every place the two can decide differently lies
in that band: a leaf edge is an integer, a face-choice tie puts u or v at
+-1 (st at 0 or 1), and the ``u = 0`` branch of the quadratic transform
puts st at 1/2.  Lanes outside the angles the tangent form holds for
(|lat| > 90, |lng| > 180, NaN, +-inf) project from lat = lng = 0, the
centre of face 0, and so land in the band too; they never reach
``np.tan`` or the cast, and decide silently.  Over 5 x 10^7 world and NYC
points the tangent path was never more than 3.6e-7 leaf units (three
ulps of ``st * 2**30``) off the exact one, a tenth of the guard, and the
guard sent 1.6e-5 of the lanes the exact way: one point in about eight
8,192-point batches.

:func:`leaf_ids_from_face_ij` walks the Hilbert curve in four byte-pair
steps through one table built at import, :data:`WALK16`: two steps of the
1024-entry :data:`WALK` composed, keyed ``orientation << 16 | i_byte << 8
| j_byte`` (2**18 ``uint32`` entries, 1 MiB, L2-resident).  The
projection casts its leaf coordinates to ``uint32`` once, two transposing
byte copies turn them into four ``uint16`` lanes, and a step is four array
calls: or the lane into the orientation, gather, store the position half
through a ``uint16`` view of the ids, mask the next orientation.  That is
about 22 calls for the walk where the eight-step byte-lane walk took 51
(two seven-call nibble spreads, then eight steps of four), at a few
microseconds a call on a 2-vCPU host: the whole kernel read 158-172 ->
67-118 us at one point and 879-939 -> 504-712 us at 8,192 points
(alternating processes).  The byte-lane walk lives on in
``tests/oracles.py`` as the parity oracle, beside the stage-at-a-time
pipeline it replaced.
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
#: Exactly half of it: ``lng * _HALF_RADIANS_PER_DEGREE`` is ``theta / 2``.
_HALF_RADIANS_PER_DEGREE = _RADIANS_PER_DEGREE / 2.0
_HALF_PI = math.pi / 2.0
_HALF_SIZE = float(MAX_SIZE // 2)
#: Half-width, in leaf units (``st * 2**30``), of the band around every
#: integer in which the tangent projection defers to the exact one: ten
#: times its largest measured error (see the module docstring).
_GUARD = 4e-6
#: ``LOOKUP_IJ`` split for the decode walk: the chunk's ``(i << 4) | j``
#: byte, and the next orientation.
_LOOKUP_IJ_NIBBLES = (LOOKUP_IJ >> 2).astype(np.uint8)
_LOOKUP_ORIENTATION = (LOOKUP_IJ & 3).astype(np.intp)
#: Child k of a cell sits ``2 * k`` child-lsb steps above the first child.
_CHILD_STEPS = np.arange(4, dtype=np.uint64) * np.uint64(2)

# Cube-face projection by face: u and v numerators as rows of the signed
# coordinate buffer ``[x, y, z, -x, -y]`` (the denominator is row
# ``face % 3``) — the six cases of ``projections.xyz_to_face_uv``.
_UV_ROW = np.array([[1, 3, 3, 2, 2, 4], [2, 2, 4, 1, 3, 3]], dtype=np.intp)

#: One step of the Hilbert walk: ``WALK[orientation * 256 + i_nibble * 16
#: + j_nibble]`` is ``next_orientation * 256 + position_byte`` —
#: ``LOOKUP_POS`` re-keyed so the orientation sits above a byte of
#: interleaved coordinates instead of below it.
_lookup_pos = LOOKUP_POS.astype(np.intp).reshape(256, 4).T  # [orientation, ij]
WALK = (((_lookup_pos & 3) << 8) | (_lookup_pos >> 2)).reshape(1024)
del _lookup_pos
#: Two steps of :data:`WALK`: ``WALK16[orientation << 16 | i_byte << 8 |
#: j_byte]`` is ``next_orientation << 16 | position_u16``, the high
#: position byte from the bytes' high nibbles and the low one from their
#: low nibbles.  2**18 ``uint32`` entries: 1 MiB.
_key = np.arange(1 << 18, dtype=np.intp)
_high = WALK[(_key >> 8 & 0x300) | (_key >> 8 & 0xF0) | (_key >> 4 & 0xF)]
_low = WALK[(_high & 0x300) | (_key >> 4 & 0xF0) | (_key & 0xF)]
WALK16 = ((_low & 0x300) << 8 | (_high & 0xFF) << 8 | (_low & 0xFF)).astype(np.uint32)
del _key, _high, _low
_ORIENTATION_BITS = 0x30000
#: ``(face << 61) | 1`` per face: the bits of a leaf id around its position.
_FACE_AND_MARKER = (np.arange(6, dtype=np.uint64) << np.uint64(_POS_BITS)) | np.uint64(1)
#: The walk reads and writes through byte views: pin the byte order.
_U16 = np.dtype("<u2")
_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")
#: The even nibbles ``_unzip_nibbles`` starts from, and its ``(shift,
#: mask)`` rounds.
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_NIBBLE_UNZIP = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((4, 0x00FF00FF00FF00FF), (8, 0x0000FFFF0000FFFF), (16, 0xFFFFFFFF))
)
_ONE = np.uint64(1)


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
    :mod:`repro.cells.projections`: from the tangents, and from the unit
    vector where a leaf edge is within :data:`_GUARD` (see the module
    docstring).  ``i`` and ``j`` are ``int64``.
    """
    face, ij = _face_leaf_ij(lats, lngs, np.int64)
    return face, ij[0], ij[1]


def _face_leaf_ij(
    lats: np.ndarray, lngs: np.ndarray, dtype: np.dtype | type
) -> tuple[np.ndarray, np.ndarray]:
    """Face and the ``(2, n)`` leaf coordinates, cast to ``dtype``, of
    degree arrays.  The one place point coordinates enter the cell
    pipeline, so the shapes are checked here."""
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    if lats.shape != lngs.shape:
        raise ValueError(
            f"lats and lngs must have the same shape, got {lats.shape} and {lngs.shape}"
        )
    n = lats.size
    lats = lats.reshape(n)
    lngs = lngs.reshape(n)
    face, leaf, off_edge = _face_leaf(_tangent_xyz(lats, lngs))
    # Lanes off the guard band lie strictly inside (0, 2**30): any integer
    # type holds their truncation.
    ij = leaf.astype(dtype)
    if off_edge.min(initial=_GUARD) < _GUARD:
        exact = np.flatnonzero((off_edge < _GUARD).any(axis=0))
        # NaN casts as it always did, then clamps to 0, without a warning.
        with np.errstate(invalid="ignore"):
            face[exact], leaf, _ = _face_leaf(_unit_xyz(lats[exact], lngs[exact]))
            near = leaf.astype(np.int64)
        np.maximum(near, 0, out=near)
        np.minimum(near, MAX_SIZE - 1, out=near)
        ij[:, exact] = near
    return face, ij


def _tangent_xyz(lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Rows ``x, y, z, -x, -y`` of a positive multiple of each point's
    unit vector, from ``tan(phi)`` and ``b = tan(theta / 2)``."""
    n = lats.size
    # phi and theta / 2.  Halving is exact, so these are the angles of
    # _unit_xyz.  Lanes outside [-pi/2, pi/2] (|lat| > 90, |lng| > 180,
    # NaN, +-inf) project from lat = lng = 0 instead: the centre of face 0,
    # u = v = 0, a leaf corner the guard sends the exact way.
    angles = np.empty((2, n))
    np.multiply(lats, _RADIANS_PER_DEGREE, out=angles[0])
    np.multiply(lngs, _HALF_RADIANS_PER_DEGREE, out=angles[1])
    if not (
        angles.max(initial=0.0) <= _HALF_PI and angles.min(initial=0.0) >= -_HALF_PI
    ):
        angles[:, ~(np.abs(angles) <= _HALF_PI).all(axis=0)] = 0.0
    np.tan(angles, out=angles)
    tan_phi, b = angles
    # x : y : z = 1 - b^2 : 2b : tan(phi) (1 + b^2) while cos(phi) > 0.
    signed = np.empty((5, n))
    x, y, z, _, _ = signed
    np.multiply(b, b, out=x)
    np.add(x, 1.0, out=z)
    z *= tan_phi
    np.subtract(1.0, x, out=x)
    np.add(b, b, out=y)
    np.negative(signed[:2], out=signed[3:])
    return signed


def _unit_xyz(lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Rows ``x, y, z, -x, -y`` of each point's unit vector."""
    signed = np.empty((5, lats.size))
    xyz_from_lat_lng(lats, lngs, out=signed[:3])
    np.negative(signed[:2], out=signed[3:])
    return signed


def _face_leaf(signed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Face, ``(2, n)`` leaf coordinates ``st * 2**30`` and their
    distances to the nearest integer, of the points ``signed`` holds (rows
    ``x, y, z, -x, -y``; the buffer is reused)."""
    n = signed.shape[1]
    flat = signed.reshape(-1)
    # The largest |component| picks the axis (ties: x over y over z) and
    # its sign the face; `> 0` is the positive one, so NaN lands on face 5.
    ax, ay, az = np.abs(signed[:3])
    x_major = ax >= ay
    x_major &= ax >= az
    face = np.subtract(2, ay >= az, dtype=np.intp)
    face *= ~x_major
    lanes = np.arange(n)
    index = face * n
    index += lanes
    major = np.take(flat, index)
    face += 3
    face -= np.multiply(major > 0.0, 3, dtype=np.intp)
    # u and v: one flat gather for both numerators, then one division.
    index = np.take(_UV_ROW * n, face, axis=1)
    index += lanes
    uv = np.take(flat, index)
    uv /= major
    # With w = 2^29 sqrt(1 + 3|uv|), 2^30 st is w for uv >= 0 and 2^30 - w
    # below, formed exactly as 2^29 +- (w - 2^29).  w rounds where
    # ``uv_to_st`` rounds (3|uv|, 1 + 3|uv|, the sqrt, each scaled by a
    # power of two), so this is ``uv_to_st`` times 2^30 bit for bit, and
    # 2^30 st is as far from an integer as w is.
    w = np.abs(uv, out=signed[:2])
    w *= 3.0 * _HALF_SIZE * _HALF_SIZE
    w += _HALF_SIZE * _HALF_SIZE
    np.sqrt(w, out=w)
    off_edge = np.rint(w, out=signed[2:4])
    off_edge -= w
    np.abs(off_edge, out=off_edge)
    w -= _HALF_SIZE
    np.copysign(w, uv, out=uv)
    uv += _HALF_SIZE
    return face, uv, off_edge


def leaf_ids_from_face_ij(face: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert translation: (face, i, j) -> leaf cell ids, in
    the shape of ``face``.  ``i`` and ``j`` are leaf coordinates below
    ``2**30``."""
    face = np.asarray(face, dtype=np.intp)
    n = face.size
    ij = np.empty((2, n), dtype=_U32)
    ij[0] = np.asarray(i).reshape(n)
    ij[1] = np.asarray(j).reshape(n)
    return _hilbert_walk(face.reshape(n), ij).reshape(face.shape)


def _hilbert_walk(face: np.ndarray, ij: np.ndarray) -> np.ndarray:
    """Leaf ids of flat faces and ``(2, n)`` ``uint32`` leaf coordinates.

    The 8-chunk table walk of ``hilbert.leaf_pos_from_ij``, two chunks a
    step: lane k holds byte k of i and of j (``i_byte << 8 | j_byte``),
    built by two transposing byte copies, and each of the four steps ors
    its lane into the orientation, looks the key up in :data:`WALK16` and
    stores the low half through a ``uint16`` view of the ids — no shifts
    or masks per chunk.
    """
    n = face.size
    coordinate_bytes = ij.view(np.uint8).reshape(2, n, 4)
    lane_bytes = np.empty((4, n, 2), dtype=np.uint8)
    lane_bytes[:, :, 1] = coordinate_bytes[0].T
    lane_bytes[:, :, 0] = coordinate_bytes[1].T
    lanes = lane_bytes.view(_U16).reshape(4, n)
    ids = np.empty(n, dtype=_U64)
    id_lanes = ids.view(_U16).reshape(n, 4)
    index = np.left_shift(face & SWAP_MASK, 16)
    looked = np.empty(n, dtype=np.uint32)
    for k in range(3, -1, -1):
        index |= lanes[k]
        # Every key is in range; "clip" skips the buffered copy that
        # take(out=) makes to raise on a bad one.
        WALK16.take(index, out=looked, mode="clip")
        id_lanes[:, k] = looked  # the cast keeps the position
        np.bitwise_and(looked, _ORIENTATION_BITS, out=index)
    ids <<= _ONE
    ids |= _FACE_AND_MARKER.take(face)
    return ids.astype(np.uint64, copy=False)


def face_ij_from_leaf_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized inverse of :func:`leaf_ids_from_face_ij`.

    Takes leaf cell ids (uint64) and returns ``(face, i, j)`` int64 arrays,
    mirroring the 8-chunk table walk of ``hilbert.ij_from_leaf_pos`` with
    table gathers per chunk (bit-identical to the scalar decode, verified
    in ``tests/test_vectorized.py``).  Chunk ``k`` is byte ``k`` of the
    position; the walk carries only the orientation and writes each
    chunk's ``(i, j)`` nibble pair to byte ``k`` of an output word, whose
    nibbles are then unzipped into ``i`` and ``j``.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    flat = ids.reshape(-1)
    face = (flat >> np.uint64(_POS_BITS)).astype(np.int64)
    pos = (flat & np.uint64((1 << _POS_BITS) - 1)) >> _ONE
    # The top chunk only has 2 meaningful quadtree levels (30 = 7*4 + 2):
    # the rest of its byte is 0.
    chunks = np.ascontiguousarray(pos.astype(_U64, copy=False).view(np.uint8).reshape(-1, 8).T)
    index = np.left_shift(chunks, 2, dtype=np.intp)
    nibbles = np.empty((8, flat.size), dtype=np.uint8)
    orientation = face & SWAP_MASK
    for k in range(7, -1, -1):
        index[k] |= orientation
        _LOOKUP_IJ_NIBBLES.take(index[k], out=nibbles[k])
        orientation = _LOOKUP_ORIENTATION.take(index[k])
    words = np.ascontiguousarray(nibbles.T).view(_U64).reshape(-1)
    i = _unzip_nibbles(words >> np.uint64(LOOKUP_BITS)).astype(np.int64)
    j = _unzip_nibbles(words).astype(np.int64)
    return face.reshape(ids.shape), i.reshape(ids.shape), j.reshape(ids.shape)


def _unzip_nibbles(words: np.ndarray) -> np.ndarray:
    """The even nibbles of ``uint64`` words, packed into their low 32 bits
    (bits ``4k..4k+3`` of the result come from byte ``k``)."""
    x = words & _LOW_NIBBLES
    for shift, mask in _NIBBLE_UNZIP:
        x |= x >> shift
        x &= mask
    return x


def cell_ids_from_lat_lng_arrays(lats: np.ndarray, lngs: np.ndarray) -> np.ndarray:
    """Leaf cell ids (uint64) for parallel lat/lng degree arrays."""
    face, ij = _face_leaf_ij(lats, lngs, _U32)
    # `[()]`: an array for array input, a scalar for 0-d input.
    return _hilbert_walk(face, ij).reshape(np.shape(lats))[()]


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
