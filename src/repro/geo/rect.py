"""Axis-aligned rectangles in (lng, lat) space."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle ``[lng_lo, lng_hi] x [lat_lo, lat_hi]``.

    Rectangles serve two roles in this library: minimum bounding rectangles
    (MBRs) of polygons, and conservative lat/lng bounds of grid cells.
    """

    lng_lo: float
    lng_hi: float
    lat_lo: float
    lat_hi: float

    @staticmethod
    def empty() -> "Rect":
        """Return the canonical empty rectangle (inverted bounds)."""
        return Rect(1.0, -1.0, 1.0, -1.0)

    @property
    def is_empty(self) -> bool:
        return self.lng_lo > self.lng_hi or self.lat_lo > self.lat_hi

    @property
    def center(self) -> tuple[float, float]:
        """Center as ``(lng, lat)``."""
        return ((self.lng_lo + self.lng_hi) / 2.0, (self.lat_lo + self.lat_hi) / 2.0)

    @property
    def width(self) -> float:
        return max(0.0, self.lng_hi - self.lng_lo)

    @property
    def height(self) -> float:
        return max(0.0, self.lat_hi - self.lat_lo)

    def area(self) -> float:
        if self.is_empty:
            return 0.0
        return self.width * self.height

    def contains_point(self, lng: float, lat: float) -> bool:
        return (
            self.lng_lo <= lng <= self.lng_hi and self.lat_lo <= lat <= self.lat_hi
        )

    def contains_rect(self, other: "Rect") -> bool:
        if other.is_empty:
            return True
        return (
            self.lng_lo <= other.lng_lo
            and other.lng_hi <= self.lng_hi
            and self.lat_lo <= other.lat_lo
            and other.lat_hi <= self.lat_hi
        )

    def intersects(self, other: "Rect") -> bool:
        if self.is_empty or other.is_empty:
            return False
        return (
            self.lng_lo <= other.lng_hi
            and other.lng_lo <= self.lng_hi
            and self.lat_lo <= other.lat_hi
            and other.lat_lo <= self.lat_hi
        )

    def union(self, other: "Rect") -> "Rect":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Rect(
            min(self.lng_lo, other.lng_lo),
            max(self.lng_hi, other.lng_hi),
            min(self.lat_lo, other.lat_lo),
            max(self.lat_hi, other.lat_hi),
        )

    def expanded(self, margin_lng: float, margin_lat: float | None = None) -> "Rect":
        """Grow the rectangle by a margin on every side (shrink if negative)."""
        if margin_lat is None:
            margin_lat = margin_lng
        return Rect(
            self.lng_lo - margin_lng,
            self.lng_hi + margin_lng,
            self.lat_lo - margin_lat,
            self.lat_hi + margin_lat,
        )

    def corners(self) -> list[tuple[float, float]]:
        """The four corners in counter-clockwise order, as ``(lng, lat)``."""
        return [
            (self.lng_lo, self.lat_lo),
            (self.lng_hi, self.lat_lo),
            (self.lng_hi, self.lat_hi),
            (self.lng_lo, self.lat_hi),
        ]
