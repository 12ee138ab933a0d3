"""Tests for the rect/polygon relation every build stage classifies with.

The contract is conservative: CONTAINED and DISJOINT must be exact;
anything uncertain must be INTERSECTS.  Every case runs against both the
batched production classifier (``repro.geo.relation``) and the scalar
parity oracle (``tests/oracles.py``), and the two must agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon, regular_polygon
from repro.geo.rect import Rect
from repro.geo.relation import Relation, _rect_classifier

import oracles

SQUARE = Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])


def rect_polygon_relation(rect: Rect, polygon: Polygon) -> Relation:
    """The batched classifier's verdict on one rect, checked against the
    scalar oracle's."""
    bounds = ([rect.lng_lo], [rect.lng_hi], [rect.lat_lo], [rect.lat_hi])
    codes = _rect_classifier(polygon).relations(*map(np.asarray, bounds))
    assert codes[0] == oracles.rect_polygon_relation(rect, polygon)
    return Relation(int(codes[0]))


class TestKnownCases:
    def test_contained(self):
        assert rect_polygon_relation(Rect(4, 6, 4, 6), SQUARE) == Relation.CONTAINED

    def test_disjoint_far(self):
        assert rect_polygon_relation(Rect(20, 30, 20, 30), SQUARE) == Relation.DISJOINT

    def test_disjoint_near_mbr(self):
        # Inside the MBR band but outside a triangle's body.
        triangle = Polygon([(0, 0), (10, 0), (0, 10)])
        assert (
            rect_polygon_relation(Rect(8, 9, 8, 9), triangle) == Relation.DISJOINT
        )

    def test_boundary_crossing(self):
        assert rect_polygon_relation(Rect(-1, 1, 4, 6), SQUARE) == Relation.INTERSECTS

    def test_polygon_inside_rect(self):
        small = regular_polygon((5.0, 5.0), 1.0, 8)
        assert rect_polygon_relation(Rect(0, 10, 0, 10), small) == Relation.INTERSECTS

    def test_empty_rect(self):
        assert rect_polygon_relation(Rect.empty(), SQUARE) == Relation.DISJOINT

    def test_rect_straddles_hole(self, holed_polygon):
        # A rect containing the hole entirely is not fully contained.
        rect = Rect(-74.007, -73.993, 40.705, 40.715)
        assert rect_polygon_relation(rect, holed_polygon) == Relation.INTERSECTS

    def test_rect_inside_hole_is_disjoint(self, holed_polygon):
        rect = Rect(-74.002, -73.998, 40.708, 40.712)
        assert rect_polygon_relation(rect, holed_polygon) == Relation.DISJOINT

    def test_rect_between_hole_and_outer_contained(self, holed_polygon):
        rect = Rect(-74.0095, -74.0065, 40.7005, 40.7055)
        assert rect_polygon_relation(rect, holed_polygon) == Relation.CONTAINED


class TestConservativeness:
    """Property: sampled points never contradict the relation verdict."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=0.01, max_value=1.2),
        st.floats(min_value=0.01, max_value=1.2),
        st.integers(min_value=3, max_value=24),
    )
    def test_sampled_consistency(self, cx, cy, w, h, num_vertices):
        polygon = regular_polygon((0.0, 0.0), 1.0, num_vertices)
        rect = Rect(cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2)
        relation = rect_polygon_relation(rect, polygon)
        grid = np.linspace(0.02, 0.98, 7)
        gx, gy = np.meshgrid(
            rect.lng_lo + grid * rect.width, rect.lat_lo + grid * rect.height
        )
        inside = contains_points(polygon, gx.ravel(), gy.ravel())
        if relation == Relation.CONTAINED:
            assert inside.all()
        elif relation == Relation.DISJOINT:
            assert not inside.any()
        # INTERSECTS makes no promise, so nothing to check.


class TestBatches:
    """One call over many rects == one call per rect, whatever the chunking."""

    def test_batch_matches_single_rects(self, holed_polygon, monkeypatch):
        generator = np.random.default_rng(3)
        lo_x = generator.uniform(-74.02, -73.99, 400)
        lo_y = generator.uniform(40.69, 40.72, 400)
        hi_x = lo_x + generator.uniform(0.0, 0.01, 400)
        hi_y = lo_y + generator.uniform(0.0, 0.01, 400)
        classifier = _rect_classifier(holed_polygon)
        whole = classifier.relations(lo_x, hi_x, lo_y, hi_y)
        assert set(whole.tolist()) == {0, 1, 2}
        single = [
            oracles.rect_polygon_relation(Rect(*bounds), holed_polygon)
            for bounds in zip(lo_x, hi_x, lo_y, hi_y)
        ]
        assert whole.tolist() == [int(relation) for relation in single]
        # Force many chunks: 8 edges -> 5 rects per chunk.
        monkeypatch.setattr("repro.geo.relation._CLASSIFY_CHUNK_PAIRS", 40)
        assert (classifier.relations(lo_x, hi_x, lo_y, hi_y) == whole).all()
