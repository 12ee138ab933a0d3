"""Tests for the rect/polygon relation every build stage classifies with.

The contract is conservative: CONTAINED and DISJOINT must be exact;
anything uncertain must be INTERSECTS.  Every case runs against the
production pass (``repro.geo.relation.relations_for_pairs``), the scalar
parity oracle and the per-polygon broadcast classifier it replaced
(``tests/oracles.py``), and all three must agree.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.geo.relation as relation
from repro.geo.pip import contains_points
from repro.geo.polygon import Polygon, regular_polygon
from repro.geo.rect import Rect
from repro.geo.relation import Relation, RelationTable, relations_for_pairs

import oracles

SQUARE = Polygon([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])


def rect_polygon_relation(rect: Rect, polygon: Polygon) -> Relation:
    """The production pass's verdict on one rect, checked against both
    oracles'."""
    bounds = tuple(
        np.asarray([value]) for value in (rect.lng_lo, rect.lng_hi, rect.lat_lo, rect.lat_hi)
    )
    codes = relations_for_pairs(RelationTable([polygon]), bounds, [0], [0])
    assert codes[0] == oracles.rect_polygon_relation(rect, polygon)
    assert codes[0] == oracles.RectClassifier(polygon).relations(*bounds)[0]
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
    """One pass over many rects == one rect at a time, whatever the chunking."""

    def test_batch_matches_single_rects(self, holed_polygon):
        generator = np.random.default_rng(3)
        lo_x = generator.uniform(-74.02, -73.99, 400)
        lo_y = generator.uniform(40.69, 40.72, 400)
        hi_x = lo_x + generator.uniform(0.0, 0.01, 400)
        hi_y = lo_y + generator.uniform(0.0, 0.01, 400)
        rects = (lo_x, hi_x, lo_y, hi_y)
        table = RelationTable([holed_polygon])
        pairs = (np.arange(400), np.zeros(400, dtype=np.int64))
        whole = relations_for_pairs(table, rects, *pairs)
        assert set(whole.tolist()) == {0, 1, 2}
        single = [
            oracles.rect_polygon_relation(Rect(*bounds), holed_polygon)
            for bounds in zip(lo_x, hi_x, lo_y, hi_y)
        ]
        assert whole.tolist() == [int(relation) for relation in single]
        # Many chunks of both kinds: a chunk edge inside a rect's edge run.
        with mock.patch.object(relation, "_CHUNK_SLOTS", 3), mock.patch.object(
            relation, "_CHUNK_PAIRS", 7
        ):
            assert (relations_for_pairs(table, rects, *pairs) == whole).all()


# ----------------------------------------------------------------------
# The pass against the per-polygon broadcast, on random polygon blocks
# ----------------------------------------------------------------------

#: Vertices and rect bounds sit on a coarse grid, so horizontal edges,
#: collinear edges and rect corners exactly on a vertex are common.
GRID = 0.25
_grid = st.integers(min_value=-44, max_value=44).map(lambda k: k * GRID)


@st.composite
def _star(draw, center: tuple[float, float], max_radius: int):
    """A grid-snapped star ring (possibly self-touching, with repeated
    vertices: the pass must agree with the oracle on any ring)."""
    num = draw(st.integers(min_value=3, max_value=14))
    radii = draw(st.lists(st.integers(1, max_radius), min_size=num, max_size=num))
    points = []
    for k, radius in enumerate(radii):
        angle = 2.0 * np.pi * k / num
        points.append((
            center[0] + GRID * round(radius * np.cos(angle)),
            center[1] + GRID * round(radius * np.sin(angle)),
        ))
    return points


@st.composite
def _polygon(draw) -> Polygon:
    kind = draw(st.sampled_from(["plain", "holed", "edge-free"]))
    center = (draw(_grid), draw(_grid))
    if kind == "edge-free":
        # Every edge horizontal: no edge can cross a PIP ray.
        xs = sorted(draw(st.sets(_grid, min_size=3, max_size=3)))
        return Polygon([(x, center[1]) for x in xs])
    outer = draw(_star(center, 24))
    holes = [draw(_star(center, 6))] if kind == "holed" else []
    return Polygon(outer, holes)


@st.composite
def _rects(draw, num: int):
    """Grid rects, plus ones spanning every latitude bucket of the block
    and ones above or below every polygon."""
    rects = []
    for _ in range(num):
        shape = draw(st.sampled_from(["grid", "grid", "grid", "tall", "above", "below"]))
        lng = sorted((draw(_grid), draw(_grid)))
        lat = sorted((draw(_grid), draw(_grid)))
        if shape == "tall":
            lat = [-20.0, 20.0]
        elif shape == "above":
            lat = [17.0, 18.0]
        elif shape == "below":
            lat = [-18.0, -17.0]
        rects.append((*lng, *lat))
    return tuple(np.asarray(bound, dtype=np.float64) for bound in zip(*rects))


class TestBlockParity:
    """``relations_for_pairs`` over a block == the per-polygon broadcast,
    code for code."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_polygon(), min_size=1, max_size=5),
        _rects(12),
        st.data(),
    )
    def test_matches_broadcast_oracle(self, block, rects, data):
        num_pairs = data.draw(st.integers(min_value=1, max_value=40))
        # Sorted rect indices: one rect's pairs run together, as in a round.
        sized = {"min_size": num_pairs, "max_size": num_pairs}
        rect_index = np.asarray(sorted(data.draw(st.lists(st.integers(0, 11), **sized))))
        polygon_ids = np.asarray(data.draw(st.lists(st.integers(0, len(block) - 1), **sized)))
        expected = oracles.relations_per_polygon(block, rects, rect_index, polygon_ids).tolist()
        table = RelationTable(block)
        assert relations_for_pairs(table, rects, rect_index, polygon_ids).tolist() == expected
        # Chunk edges anywhere: inside one rect's run of pairs, and inside
        # one pair's run of edge slots.
        slots = data.draw(st.integers(min_value=1, max_value=9))
        pairs = data.draw(st.integers(min_value=1, max_value=5))
        with mock.patch.object(relation, "_CHUNK_SLOTS", slots), mock.patch.object(
            relation, "_CHUNK_PAIRS", pairs
        ):
            assert relations_for_pairs(table, rects, rect_index, polygon_ids).tolist() == expected
        # A table packing only the pairs' polygons answers alike.
        subset = RelationTable(block, polygon_ids)
        assert relations_for_pairs(subset, rects, rect_index, polygon_ids).tolist() == expected

    def test_vertex_on_rect_corner(self):
        # Rect corners exactly on ring vertices, inside and on the hull.
        polygon = Polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 2.0), (0.0, 4.0)])
        rects = tuple(np.asarray(bound) for bound in zip(
            (2.0, 3.0, 2.0, 3.0), (0.0, 1.0, 0.0, 1.0), (4.0, 5.0, 4.0, 5.0),
            (1.0, 2.0, 1.0, 2.0), (2.0, 4.0, 0.0, 2.0),
        ))
        rect_index = np.arange(5)
        polygon_ids = np.zeros(5, dtype=np.int64)
        expected = oracles.relations_per_polygon([polygon], rects, rect_index, polygon_ids)
        got = relations_for_pairs(RelationTable([polygon]), rects, rect_index, polygon_ids)
        assert got.tolist() == expected.tolist()

    def test_no_pairs(self):
        rects = tuple(np.zeros(0) for _ in range(4))
        empty = np.zeros(0, dtype=np.int64)
        assert relations_for_pairs(RelationTable([SQUARE]), rects, empty, empty).size == 0
