"""Grid metrics: translating cell levels to distances on the ground.

The paper's precision bounds ("<4 m") rest on the guarantee that any point
inside a boundary cell is at most the cell diagonal away from the polygon.
These metrics bound cell dimensions per level for the quadratic projection.
A metric value at level ``k`` is ``deriv * 2^-k`` radians; multiplied by the
Earth radius it yields meters.

With these constants, level 22 has a maximum diagonal of ~3.7 m and level 21
of ~7.4 m — matching the paper's statement that a 4 m precision bound
requires boundary cells of at least level 22 ("level 21 would be too
coarse-grained").
"""

from __future__ import annotations

import math

EARTH_RADIUS_METERS = 6_371_010.0
MAX_LEVEL = 30

# Metric derivatives for the quadratic projection (dimensionless).
MAX_DIAG_DERIV = 2.438654594434021
AVG_DIAG_DERIV = 2.060422738998471
MAX_EDGE_DERIV = 1.704897179199218
MIN_WIDTH_DERIV = 2.0 * math.sqrt(2.0) / 3.0
AVG_AREA_DERIV = 4.0 * math.pi / 6.0  # sphere area / 6 faces, per unit cell


def max_diag_meters(level: int) -> float:
    """Upper bound on the diagonal of any level-``level`` cell, in meters."""
    return MAX_DIAG_DERIV * EARTH_RADIUS_METERS / (1 << level)


def avg_area_sq_meters(level: int) -> float:
    """Average area of level-``level`` cells, in square meters."""
    return AVG_AREA_DERIV * EARTH_RADIUS_METERS ** 2 / (1 << (2 * level))


def level_for_max_diag_meters(meters: float) -> int:
    """Minimum level whose cells are guaranteed a diagonal <= ``meters``.

    This is the paper's precision-bound-to-level mapping (Section 3.2):
    ``level_for_max_diag_meters(4.0) == 22``.
    """
    if meters <= 0.0:
        raise ValueError("precision bound must be positive")
    ratio = MAX_DIAG_DERIV * EARTH_RADIUS_METERS / meters
    level = max(0, math.ceil(math.log2(ratio)))
    return min(level, MAX_LEVEL)
