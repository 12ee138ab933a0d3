"""64-bit hierarchical cell identifiers.

A cell id encodes a quadtree cell on one of six cube faces:

* bits 61-63: the face (0-5),
* below that, two bits per level give the Hilbert-curve position of the
  cell's quadrant within its parent (up to 30 levels),
* immediately after the last position bit, a single marker ``1`` bit,
* everything below the marker is zero.

Under this encoding, a cell's id is the *center* of the id interval spanned
by its descendants: ``range_min()``/``range_max()`` bound all leaf ids
inside the cell, so containment is an interval test, and child ids share
their parent's prefix — the property both the super covering and the
Adaptive Cell Trie build on (Section 2 of the paper).

Instances are immutable and interoperate transparently with the vectorized
numpy conversions in :mod:`repro.cells.vectorized`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cells import hilbert
from repro.cells.latlng import LatLng
from repro.cells.projections import (
    MAX_SIZE,
    face_uv_to_xyz,
    st_to_ij,
    st_to_uv,
    uv_to_st,
    xyz_to_face_uv,
)
from repro.util.bits import U64_MASK

MAX_LEVEL = 30
POS_BITS = 2 * MAX_LEVEL + 1  # 61: position bits plus the marker bit
NUM_FACES = 6

_WRAP = 1 << 64


class CellId:
    """An immutable 64-bit cell identifier (see module docstring)."""

    __slots__ = ("id",)

    def __init__(self, id_: int):
        if not 0 <= id_ < _WRAP:
            raise ValueError(f"cell id out of 64-bit range: {id_:#x}")
        object.__setattr__(self, "id", id_)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CellId is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_face_pos_level(face: int, pos: int, level: int) -> "CellId":
        """Build a cell id from face, 60-bit curve position, and level."""
        if not 0 <= face < NUM_FACES:
            raise ValueError(f"invalid face: {face}")
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"invalid level: {level}")
        raw = (face << POS_BITS) | (pos << 1) | 1
        lsb = 1 << (2 * (MAX_LEVEL - level))
        # Clear bits below the level marker and set the marker.
        raw = (raw & (~(lsb - 1) & U64_MASK)) | lsb
        return CellId(raw)

    @staticmethod
    def from_face_ij(face: int, i: int, j: int) -> "CellId":
        """Leaf cell id of discrete coordinates ``(i, j)`` on ``face``."""
        pos = hilbert.leaf_pos_from_ij(face, i, j)
        return CellId(((face << POS_BITS) | (pos << 1) | 1) & U64_MASK)

    @staticmethod
    def from_lat_lng(lat_lng: LatLng) -> "CellId":
        """Leaf cell id containing a lat/lng point."""
        x, y, z = lat_lng.to_xyz()
        face, u, v = xyz_to_face_uv(x, y, z)
        i = st_to_ij(uv_to_st(u))
        j = st_to_ij(uv_to_st(v))
        return CellId.from_face_ij(face, i, j)

    @staticmethod
    def from_degrees(lat: float, lng: float) -> "CellId":
        """Convenience wrapper around :meth:`from_lat_lng`."""
        return CellId.from_lat_lng(LatLng(lat, lng))

    @staticmethod
    def from_token(token: str) -> "CellId":
        """Parse the hex token produced by :meth:`to_token`."""
        if not token or len(token) > 16:
            raise ValueError(f"invalid cell token: {token!r}")
        return CellId(int(token.ljust(16, "0"), 16))

    @staticmethod
    def face_cell(face: int) -> "CellId":
        """The level-0 cell covering an entire cube face."""
        return CellId.from_face_pos_level(face, 0, 0)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def face(self) -> int:
        return self.id >> POS_BITS

    def lsb(self) -> int:
        """Lowest set bit; encodes the level."""
        return self.id & (-self.id & U64_MASK)

    @property
    def level(self) -> int:
        if self.id & 1:
            return MAX_LEVEL
        return MAX_LEVEL - ((self.id & -self.id).bit_length() - 1) // 2

    @property
    def is_leaf(self) -> bool:
        return bool(self.id & 1)

    @property
    def pos(self) -> int:
        """The 60-bit curve position (including the marker's trailing zeros)."""
        return (self.id & ((1 << POS_BITS) - 1)) >> 1

    # ------------------------------------------------------------------
    # Hierarchy navigation
    # ------------------------------------------------------------------

    def parent(self, level: int | None = None) -> "CellId":
        """Ancestor at ``level`` (default: one level up)."""
        if level is None:
            level = self.level - 1
        if not 0 <= level <= self.level:
            raise ValueError(f"invalid parent level {level} for level {self.level}")
        new_lsb = 1 << (2 * (MAX_LEVEL - level))
        return CellId(((self.id & (-new_lsb & U64_MASK)) | new_lsb) & U64_MASK)

    def child(self, position: int) -> "CellId":
        """Child cell in curve position ``position`` (0-3)."""
        if not 0 <= position <= 3:
            raise ValueError(f"invalid child position: {position}")
        if self.is_leaf:
            raise ValueError("leaf cells have no children")
        new_lsb = self.lsb() >> 2
        return CellId((self.id + (2 * position - 3) * new_lsb) & U64_MASK)

    def children(self) -> Iterator["CellId"]:
        """The four children in Hilbert-curve order."""
        for position in range(4):
            yield self.child(position)

    def children_at_level(self, level: int) -> Iterator["CellId"]:
        """All descendants at ``level`` in Hilbert-curve order."""
        if level < self.level:
            raise ValueError("target level above this cell")
        if level == self.level:
            yield self
            return
        for child in self.children():
            yield from child.children_at_level(level)

    # ------------------------------------------------------------------
    # Interval algebra
    # ------------------------------------------------------------------

    def range_min(self) -> "CellId":
        """Smallest leaf id inside this cell."""
        return CellId(self.id - (self.lsb() - 1))

    def range_max(self) -> "CellId":
        """Largest leaf id inside this cell."""
        return CellId((self.id + (self.lsb() - 1)) & U64_MASK)

    def contains(self, other: "CellId") -> bool:
        """True if ``other`` is ``self`` or a descendant of ``self``."""
        return self.range_min().id <= other.id <= self.range_max().id

    def intersects(self, other: "CellId") -> bool:
        """True if one of the two cells contains the other."""
        return self.contains(other) or other.contains(self)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def to_face_ij(self) -> tuple[int, int, int]:
        """``(face, i, j)`` of this cell's minimum leaf coordinates.

        The Hilbert curve enters a cell at whichever corner its orientation
        dictates, so the first leaf in curve order need not be the minimum
        (i, j) corner; mask the leaf coordinates down to the cell grid.
        """
        face = self.face
        i, j, _ = hilbert.ij_from_leaf_pos(face, self.range_min().pos)
        size_mask = ~(self.ij_size() - 1)
        return face, i & size_mask, j & size_mask

    def ij_size(self) -> int:
        """Cell side length measured in leaf coordinates."""
        return 1 << (MAX_LEVEL - self.level)

    def to_lat_lng(self) -> LatLng:
        """Center of the cell."""
        face, i, j = self.to_face_ij()
        half = self.ij_size() / 2.0
        s = (i + half) / MAX_SIZE
        t = (j + half) / MAX_SIZE
        x, y, z = face_uv_to_xyz(face, st_to_uv(s), st_to_uv(t))
        return LatLng.from_xyz(x, y, z)

    # ------------------------------------------------------------------
    # Presentation / dunder protocol
    # ------------------------------------------------------------------

    def to_token(self) -> str:
        """Compact hex token (trailing zeros stripped), as in S2."""
        return f"{self.id:016x}".rstrip("0") or "X"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CellId) and self.id == other.id

    def __lt__(self, other: "CellId") -> bool:
        return self.id < other.id

    def __le__(self, other: "CellId") -> bool:
        return self.id <= other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"CellId({self.to_token()}, face={self.face}, level={self.level})"


def cell_difference(ancestor: CellId, descendant: CellId) -> list[CellId]:
    """Cells covering ``ancestor`` minus ``descendant``.

    This is the ``d = difference(c1, c2)`` of the paper's precision
    preserving conflict resolution (Section 3.1.1, Figure 4): walking from
    the descendant up to the ancestor, collect the three sibling cells at
    every level.  The result has ``3 * (level(c2) - level(c1))`` disjoint
    cells, and together with ``descendant`` exactly tiles ``ancestor``.
    """
    if not ancestor.contains(descendant):
        raise ValueError("cell_difference requires ancestor to contain descendant")
    if ancestor.id == descendant.id:
        return []
    difference = []
    current = descendant
    while current.level > ancestor.level:
        parent = current.parent()
        for sibling in parent.children():
            if sibling.id != current.id:
                difference.append(sibling)
        current = parent
    return difference
