"""Latitude/longitude points."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LatLng:
    """A point on the unit sphere given as latitude/longitude in degrees."""

    lat: float
    lng: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lng <= 180.0):
            raise ValueError(f"longitude out of range: {self.lng}")

    def to_xyz(self) -> tuple[float, float, float]:
        """Unit-sphere 3D coordinates (the S2Point of the paper's setup)."""
        phi = math.radians(self.lat)
        theta = math.radians(self.lng)
        cos_phi = math.cos(phi)
        return (
            cos_phi * math.cos(theta),
            cos_phi * math.sin(theta),
            math.sin(phi),
        )

    @staticmethod
    def from_xyz(x: float, y: float, z: float) -> "LatLng":
        """Inverse of :meth:`to_xyz`; the input need not be normalized."""
        lat = math.degrees(math.atan2(z, math.hypot(x, y)))
        lng = math.degrees(math.atan2(y, x))
        return LatLng(lat, lng)
