"""Polygons with holes, backed by numpy vertex arrays.

A :class:`Ring` is a closed sequence of vertices (the closing edge back to
the first vertex is implicit).  A :class:`Polygon` is one outer ring plus
zero or more hole rings, with even-odd interior semantics: a point is inside
the polygon if a ray from it crosses the union of all ring edges an odd
number of times.  This matches the semantics of the ray-tracing PIP test the
paper uses in its refinement phase (S2's ``S2Polygon::Contains``), and of
PostGIS ``ST_Covers`` up to boundary cases.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.geo.rect import Rect


class Ring:
    """A closed ring of ``(lng, lat)`` vertices (implicitly closed)."""

    __slots__ = ("lngs", "lats", "_mbr")

    def __init__(self, vertices: Iterable[tuple[float, float]]):
        pts = list(vertices)
        if len(pts) >= 2 and pts[0] == pts[-1]:
            # Tolerate explicitly closed input rings.
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError(f"a ring needs at least 3 distinct vertices, got {len(pts)}")
        self.lngs = np.asarray([p[0] for p in pts], dtype=np.float64)
        self.lats = np.asarray([p[1] for p in pts], dtype=np.float64)
        self._mbr: Rect | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.lngs)

    @property
    def mbr(self) -> Rect:
        if self._mbr is None:
            self._mbr = Rect(
                float(self.lngs.min()),
                float(self.lngs.max()),
                float(self.lats.min()),
                float(self.lats.max()),
            )
        return self._mbr

    def vertices(self) -> list[tuple[float, float]]:
        return list(zip(self.lngs.tolist(), self.lats.tolist()))

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoint arrays ``(x0, y0, x1, y1)``, one entry per edge."""
        x0 = self.lngs
        y0 = self.lats
        x1 = np.roll(self.lngs, -1)
        y1 = np.roll(self.lats, -1)
        return x0, y0, x1, y1

    def signed_area(self) -> float:
        """Shoelace signed area (positive for counter-clockwise rings)."""
        x = self.lngs
        y = self.lats
        xr = np.roll(x, -1)
        yr = np.roll(y, -1)
        return float(np.sum(x * yr - xr * y) / 2.0)

    def __repr__(self) -> str:
        return f"Ring({self.num_vertices} vertices)"


class Polygon:
    """One outer ring plus optional hole rings, with even-odd semantics."""

    __slots__ = ("outer", "holes", "_mbr", "_edge_cache", "_refine_cache",
                 "_cover_cache")

    def __init__(self, outer: Ring | Sequence[tuple[float, float]],
                 holes: Sequence[Ring | Sequence[tuple[float, float]]] = ()):
        self.outer = outer if isinstance(outer, Ring) else Ring(outer)
        self.holes = [h if isinstance(h, Ring) else Ring(h) for h in holes]
        self._mbr: Rect | None = None
        self._edge_cache: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._refine_cache = None  # lazily built by repro.geo.refine
        # (covering options, interior options, covering ids, interior ids)
        # of the last covering, kept by repro.core.builder.cover_polygons.
        self._cover_cache = None

    @property
    def rings(self) -> list[Ring]:
        return [self.outer, *self.holes]

    @property
    def num_vertices(self) -> int:
        return sum(ring.num_vertices for ring in self.rings)

    @property
    def num_edges(self) -> int:
        return self.num_vertices

    @property
    def mbr(self) -> Rect:
        if self._mbr is None:
            self._mbr = self.outer.mbr
        return self._mbr

    def all_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated edge arrays over all rings (cached)."""
        if self._edge_cache is None:
            parts = [ring.edges() for ring in self.rings]
            self._edge_cache = tuple(
                np.concatenate([p[i] for p in parts]) for i in range(4)
            )  # type: ignore[assignment]
        return self._edge_cache  # type: ignore[return-value]

    def area(self) -> float:
        """Unsigned area of outer ring minus hole areas (planar units)."""
        area = abs(self.outer.signed_area())
        for hole in self.holes:
            area -= abs(hole.signed_area())
        return area

    def __getstate__(self) -> tuple[Ring, list[Ring]]:
        """Pickle only the geometry, never the lazy caches.

        The derived caches (edge arrays, refinement bucket rows, the last
        coverings) are all recomputable and can dwarf the vertex data;
        dropping them keeps spawn-shipped shard payloads lean.
        """
        return self.outer, self.holes

    def __setstate__(self, state: tuple[Ring, list[Ring]]) -> None:
        outer, holes = state
        self.__init__(outer, holes)

    def __repr__(self) -> str:
        return f"Polygon({self.outer.num_vertices} outer vertices, {len(self.holes)} holes)"


def regular_polygon(center: tuple[float, float], radius: float, num_vertices: int) -> Polygon:
    """A regular ``num_vertices``-gon around ``center`` — handy for tests."""
    cx, cy = center
    angles = np.linspace(0.0, 2.0 * np.pi, num_vertices, endpoint=False)
    pts = [(cx + radius * float(np.cos(a)), cy + radius * float(np.sin(a))) for a in angles]
    return Polygon(pts)
