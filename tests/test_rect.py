"""Unit tests for repro.geo.rect."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geo.rect import Rect

coords = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)


def make_rect(a, b, c, d) -> Rect:
    return Rect(min(a, b), max(a, b), min(c, d), max(c, d))


class TestBasics:
    def test_empty(self):
        assert Rect.empty().is_empty
        assert Rect.empty().area() == 0.0

    def test_center_width_height(self):
        rect = Rect(0.0, 2.0, 10.0, 14.0)
        assert rect.center == (1.0, 12.0)
        assert rect.width == 2.0
        assert rect.height == 4.0
        assert rect.area() == 8.0

    def test_corners_ccw(self):
        rect = Rect(0.0, 1.0, 2.0, 3.0)
        assert rect.corners() == [(0.0, 2.0), (1.0, 2.0), (1.0, 3.0), (0.0, 3.0)]


class TestContainment:
    def test_contains_point_boundary_inclusive(self):
        rect = Rect(0.0, 1.0, 0.0, 1.0)
        assert rect.contains_point(0.0, 0.0)
        assert rect.contains_point(1.0, 1.0)
        assert not rect.contains_point(1.0001, 0.5)

    def test_contains_rect(self):
        outer = Rect(0.0, 10.0, 0.0, 10.0)
        assert outer.contains_rect(Rect(1.0, 9.0, 1.0, 9.0))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(1.0, 11.0, 1.0, 9.0))

    def test_contains_empty_rect(self):
        assert Rect(0.0, 1.0, 0.0, 1.0).contains_rect(Rect.empty())


class TestSetOperations:
    def test_intersection(self):
        a = Rect(0, 2, 0, 2)
        b = Rect(1, 3, 1, 3)
        assert a.intersects(b) and b.intersects(a)
        # Containment overlaps without any edge crossing the other's.
        outer = Rect(0, 4, 0, 4)
        inner = Rect(1, 2, 1, 2)
        assert outer.intersects(inner) and inner.intersects(outer)

    def test_intersects_touching_edges(self):
        assert Rect(0, 1, 0, 1).intersects(Rect(1, 2, 0, 1))

    def test_disjoint(self):
        assert not Rect(0, 1, 0, 1).intersects(Rect(2, 3, 0, 1))

    def test_empty_never_intersects(self):
        assert not Rect.empty().intersects(Rect(0, 1, 0, 1))

    def test_union_with_empty(self):
        rect = Rect(0, 1, 0, 1)
        assert rect.union(Rect.empty()) == rect
        assert Rect.empty().union(rect) == rect

    def test_expanded_and_shrunk(self):
        rect = Rect(0, 2, 0, 2).expanded(1.0)
        assert rect == Rect(-1, 3, -1, 3)
        assert Rect(0, 2, 0, 2).expanded(0.5, 0.25) == Rect(-0.5, 2.5, -0.25, 2.25)

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_union_contains_both(self, a, b, c, d, e, f, g, h):
        r1 = make_rect(a, b, c, d)
        r2 = make_rect(e, f, g, h)
        union = r1.union(r2)
        assert union.contains_rect(r1)
        assert union.contains_rect(r2)

    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_intersection_symmetric_and_contained(self, a, b, c, d, e, f, g, h):
        r1 = make_rect(a, b, c, d)
        r2 = make_rect(e, f, g, h)
        overlap = Rect(
            max(r1.lng_lo, r2.lng_lo),
            min(r1.lng_hi, r2.lng_hi),
            max(r1.lat_lo, r2.lat_lo),
            min(r1.lat_hi, r2.lat_hi),
        )
        assert r1.intersects(r2) == r2.intersects(r1) == (not overlap.is_empty)
        if not overlap.is_empty:
            assert r1.contains_rect(overlap)
            assert r2.contains_rect(overlap)
