"""Cube-face projection: unit sphere <-> (face, u, v) <-> (face, s, t).

The sphere is enclosed in a cube; a point projects gnomonically onto the
face its largest coordinate axis points at, giving ``(u, v)`` in
``[-1, 1]^2``.  Because the gnomonic projection badly distorts areas, the
``u`` coordinate is re-parameterized to ``s`` in ``[0, 1]`` with the same
*quadratic* transform the S2 library uses, which keeps cell areas within a
factor ~2.1 of each other.  ``(s, t)`` scaled by ``2^30`` gives the discrete
leaf coordinates ``(i, j)``.
"""

from __future__ import annotations

import math

MAX_LEVEL = 30
MAX_SIZE = 1 << MAX_LEVEL  # leaf cells per face edge


def st_to_uv(s: float) -> float:
    """Quadratic transform from ``s`` in [0,1] to ``u`` in [-1,1]."""
    if s >= 0.5:
        return (1.0 / 3.0) * (4.0 * s * s - 1.0)
    return (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s))


def uv_to_st(u: float) -> float:
    """Inverse of :func:`st_to_uv`."""
    if u >= 0.0:
        return 0.5 * math.sqrt(1.0 + 3.0 * u)
    return 1.0 - 0.5 * math.sqrt(1.0 - 3.0 * u)


def xyz_to_face_uv(x: float, y: float, z: float) -> tuple[int, float, float]:
    """Project a point (not necessarily normalized) to its cube face."""
    ax, ay, az = abs(x), abs(y), abs(z)
    if ax >= ay and ax >= az:
        face = 0 if x > 0 else 3
    elif ay >= az:
        face = 1 if y > 0 else 4
    else:
        face = 2 if z > 0 else 5
    if face == 0:
        return face, y / x, z / x
    if face == 1:
        return face, -x / y, z / y
    if face == 2:
        return face, -x / z, -y / z
    if face == 3:
        return face, z / x, y / x
    if face == 4:
        return face, z / y, -x / y
    return face, -y / z, -x / z


def face_uv_to_xyz(face: int, u: float, v: float) -> tuple[float, float, float]:
    """Un-project ``(face, u, v)`` back to a (non-normalized) 3D point."""
    if face == 0:
        return 1.0, u, v
    if face == 1:
        return -u, 1.0, v
    if face == 2:
        return -u, -v, 1.0
    if face == 3:
        return -1.0, -v, -u
    if face == 4:
        return v, -1.0, -u
    if face == 5:
        return v, u, -1.0
    raise ValueError(f"invalid face: {face}")


def st_to_ij(s: float) -> int:
    """Discretize ``s`` in [0,1] to a leaf coordinate in [0, 2^30)."""
    return max(0, min(MAX_SIZE - 1, int(math.floor(s * MAX_SIZE))))
