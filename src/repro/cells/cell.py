"""Cell geometry: conservative lat/lng bounding rectangles.

The region coverer classifies cells against polygons via planar rectangle
tests (DESIGN.md §1.3 item 1).  A cell's true region on the sphere has
slightly curved edges when drawn in lat/lng space; the rectangle spanned by
its four corners therefore under-covers the cell by up to the edge *bulge*.
:func:`cell_bound_rect` compensates by expanding the corner rectangle by a
conservative per-level bulge bound, so the returned rectangle always
contains the true cell region.  The bulge of a (near-)great-circle arc of
angular length ``theta`` relative to its chord is at most ``theta^2 / 8``
radians; we double that for safety margin.

This conservatism only ever *adds* cells to coverings (never correctness
loss) and is negligible at the levels where precision bounds live: at level
22 the pad is far below a millimeter.

Every build stage gets its rects from :func:`bound_rects_for_cell_ids`,
one call per round.  It projects the four corners of each cell at once,
the six cube-face cases as one flat row gather (like the ``_UV_ROW``
projection of :mod:`repro.cells.vectorized`), in chunks of
:data:`_RECT_CHUNK` cells so a round's temporaries stay a few MiB.

Known defect: an antimeridian-crossing cell is widened to lng [-180, 180],
so the face-3 column at lng ~ +-180 intersects every polygon in its
latitude band and joins its covering (``tests/test_coverer.py``
``TestAntimeridianWidening`` pins it; ROADMAP has the numbers).
"""

from __future__ import annotations

import math

import numpy as np

from repro.cells.cellid import CellId
from repro.cells.metrics import EARTH_RADIUS_METERS, MAX_EDGE_DERIV
from repro.cells.projections import face_uv_to_xyz
from repro.cells.vectorized import face_ij_from_leaf_ids, levels_from_cell_ids
from repro.geo.rect import Rect

_METERS_PER_DEGREE = EARTH_RADIUS_METERS * math.pi / 180.0


def edge_bulge_meters(level: int) -> float:
    """Conservative bound on chord-vs-edge deviation for cells at ``level``."""
    theta = MAX_EDGE_DERIV / (1 << level)  # max edge angular length (radians)
    return 2.0 * (theta * theta / 8.0) * EARTH_RADIUS_METERS


def cell_bound_rect(cell: CellId) -> Rect:
    """A lat/lng rectangle guaranteed to contain the whole cell region."""
    face, i, j = cell.to_face_ij()
    return bound_rect_from_face_ij(face, i, j, cell.ij_size(), cell.level)


# Inlined from repro.cells.projections for the hot descent paths.
_MAX_SIZE = 1 << 30
_ONE_THIRD = 1.0 / 3.0
#: Corner offsets (in cell sizes) as columns, so ``(4, 1) * (n,)`` broadcasts.
_CORNER_DI = np.array([[0], [1], [1], [0]], dtype=np.int64)
_CORNER_DJ = np.array([[0], [0], [1], [1]], dtype=np.int64)


def _st_to_uv(s: float) -> float:
    if s >= 0.5:
        return _ONE_THIRD * (4.0 * s * s - 1.0)
    return _ONE_THIRD * (1.0 - 4.0 * (1.0 - s) * (1.0 - s))


def bound_rect_from_face_ij(face: int, i: int, j: int, size: int, level: int) -> Rect:
    """Like :func:`cell_bound_rect`, from raw grid coordinates.

    A descent in (i, j) space, where children are quadrant arithmetic,
    turns a grid square into its padded lat/lng bound without building
    ``CellId`` objects or re-running the Hilbert walk.
    """
    min_lat = min_lng = math.inf
    max_lat = max_lng = -math.inf
    for di, dj in ((0, 0), (size, 0), (size, size), (0, size)):
        u = _st_to_uv((i + di) / _MAX_SIZE)
        v = _st_to_uv((j + dj) / _MAX_SIZE)
        x, y, z = face_uv_to_xyz(face, u, v)
        lat = math.degrees(math.atan2(z, math.hypot(x, y)))
        lng = math.degrees(math.atan2(y, x))
        min_lat = min(min_lat, lat)
        max_lat = max(max_lat, lat)
        min_lng = min(min_lng, lng)
        max_lng = max(max_lng, lng)
    # Conservative fallbacks for the two cases where corner extremes do not
    # bound the cell: antimeridian-crossing cells (longitudes wrap) and
    # pole-containing cells on the top/bottom faces.
    if max_lng - min_lng > 180.0:
        min_lng, max_lng = -180.0, 180.0
    half_face = _MAX_SIZE // 2
    if face in (2, 5) and i <= half_face <= i + size and j <= half_face <= j + size:
        if face == 2:
            max_lat = 90.0
        else:
            min_lat = -90.0
        min_lng, max_lng = -180.0, 180.0
    pad_meters = edge_bulge_meters(level)
    pad_lat = pad_meters / _METERS_PER_DEGREE
    max_abs_lat = min(89.9, max(abs(min_lat), abs(max_lat)) + pad_lat)
    pad_lng = pad_lat / max(0.01, math.cos(math.radians(max_abs_lat)))
    return Rect(
        min_lng - pad_lng,
        max_lng + pad_lng,
        min_lat - pad_lat,
        max_lat + pad_lat,
    )


def _st_to_uv_array(s: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_st_to_uv` (both quadratic branches evaluated)."""
    high = _ONE_THIRD * (4.0 * s * s - 1.0)
    low = _ONE_THIRD * (1.0 - 4.0 * (1.0 - s) * (1.0 - s))
    return np.where(s >= 0.5, high, low)


#: Corner offsets (in cell sizes) of ``(i, j)``: a ``(2, 4, 1)`` stack, so
#: ``(2, 1, n) + offsets * (n,)`` is every corner of every cell.
_CORNER_DIJ = np.array([_CORNER_DI, _CORNER_DJ])

#: Cube-face projection by face: x, y and z as rows of the signed buffer
#: ``[1, -1, u, v, -u, -v]`` — the six cases of
#: ``projections.face_uv_to_xyz`` as one flat gather.
_XYZ_ROW = np.array(
    [[0, 4, 4, 1, 3, 3], [2, 0, 5, 5, 1, 2], [3, 3, 0, 4, 4, 1]], dtype=np.intp
)


def _pad_lat_by_level() -> np.ndarray:
    """The bulge pad in degrees of latitude, per level (0..30)."""
    theta = MAX_EDGE_DERIV / np.exp2(np.arange(31).astype(np.float64))
    return (2.0 * (theta * theta / 8.0) * EARTH_RADIUS_METERS) / _METERS_PER_DEGREE


_PAD_LAT = _pad_lat_by_level()

#: Cells projected per chunk of :func:`bound_rects_for_cell_ids`: bounds
#: its ``(6, 4, cells)`` gather buffer and the trig temporaries to a few
#: MiB whatever the round size.
_RECT_CHUNK = 1 << 12


def _face_uv_to_xyz_arrays(face: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Vectorized ``projections.face_uv_to_xyz`` over per-element faces.

    ``face`` is ``(n,)`` and ``uv`` is ``(2, 4, n)`` (``u`` then ``v``);
    returns one ``(3, 4, n)`` array that unpacks as ``x, y, z``.  Sign
    flips are exact, so this is the per-face formula bit for bit.
    """
    m = uv[0].size
    signed = np.empty((6, m))
    signed[0] = 1.0
    signed[1] = -1.0
    signed[2:4] = uv.reshape(2, m)
    np.negative(signed[2:4], out=signed[4:6])
    index = (_XYZ_ROW * m).take(face, axis=1)[:, None, :]
    index = index + np.arange(m, dtype=np.intp).reshape(uv[0].shape)
    return signed.reshape(-1).take(index)


def bound_rects_for_cell_ids(
    raw_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`cell_bound_rect` over an array of cell ids.

    Returns ``(lng_lo, lng_hi, lat_lo, lat_hi)`` float arrays with the same
    conservative semantics as the scalar path (corner extremes, the
    antimeridian/pole fallbacks, and the per-level bulge pad).  The
    floating pipeline differs from the scalar helper by at most rounding
    in the trig calls — negligible against the pad, so the containment
    guarantee carries over.  Every build stage (coverer, precision
    refinement, training) gets its rects here, one call per round,
    projected in chunks of :data:`_RECT_CHUNK` cells.
    """
    ids = np.asarray(raw_ids, dtype=np.uint64).reshape(-1)
    out = np.empty((4, ids.size))
    for start in range(0, ids.size, _RECT_CHUNK):
        _bound_rects_chunk(ids[start:start + _RECT_CHUNK], out[:, start:start + _RECT_CHUNK])
    lng_lo, lng_hi, lat_lo, lat_hi = out
    return lng_lo, lng_hi, lat_lo, lat_hi


def _bound_rects_chunk(ids: np.ndarray, out: np.ndarray) -> None:
    """Bound rects of one chunk of ids, written to the ``(4, n)`` ``out``."""
    lsb = ids & (~ids + np.uint64(1))
    level = levels_from_cell_ids(ids)
    size = (np.int64(1) << (np.int64(30) - level)).astype(np.int64)
    leaf_min = ids - (lsb - np.uint64(1))
    face, i, j = face_ij_from_leaf_ids(leaf_min)
    # The (2, n) lower-left corner, and the four corners of every cell at
    # once: a (2, 4, n) pass.
    ij = np.array([i, j])
    ij &= ~(size - 1)
    st = (ij[:, None, :] + _CORNER_DIJ * size) / _MAX_SIZE
    x, y, z = _face_uv_to_xyz_arrays(face, _st_to_uv_array(st))
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    lng = np.degrees(np.arctan2(y, x))
    min_lat, max_lat = lat.min(axis=0), lat.max(axis=0)
    min_lng, max_lng = lng.min(axis=0), lng.max(axis=0)
    # Conservative fallbacks, as in the scalar path: antimeridian-crossing
    # cells and pole-containing cells on the top/bottom faces.
    wrap = (max_lng - min_lng) > 180.0
    half_face = _MAX_SIZE // 2
    covers_center = ((ij <= half_face) & (half_face <= ij + size)).all(axis=0)
    north = covers_center & (face == 2)
    south = covers_center & (face == 5)
    max_lat[north] = 90.0
    min_lat[south] = -90.0
    full_lng = wrap | north | south
    min_lng[full_lng] = -180.0
    max_lng[full_lng] = 180.0
    pad_lat = _PAD_LAT.take(level)
    max_abs_lat = np.minimum(
        89.9, np.maximum(np.abs(min_lat), np.abs(max_lat)) + pad_lat
    )
    pad_lng = pad_lat / np.maximum(0.01, np.cos(np.radians(max_abs_lat)))
    np.subtract(min_lng, pad_lng, out=out[0])
    np.add(max_lng, pad_lng, out=out[1])
    np.subtract(min_lat, pad_lat, out=out[2])
    np.add(max_lat, pad_lat, out=out[3])
