"""Tests for the 64-bit cell-id algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import CellId, cell_difference

lat_values = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
lng_values = st.floats(min_value=-179.9, max_value=179.9, allow_nan=False)
levels = st.integers(min_value=0, max_value=30)


@st.composite
def random_cells(draw, min_level=0, max_level=30):
    lat = draw(lat_values)
    lng = draw(lng_values)
    level = draw(st.integers(min_value=min_level, max_value=max_level))
    return CellId.from_degrees(lat, lng).parent(level)


class TestConstruction:
    def test_from_degrees_is_leaf(self):
        cell = CellId.from_degrees(40.7, -74.0)
        assert cell.is_leaf
        assert cell.level == 30

    def test_face_cell(self):
        for face in range(6):
            cell = CellId.face_cell(face)
            assert cell.face == face
            assert cell.level == 0

    def test_invalid_face_rejected(self):
        with pytest.raises(ValueError):
            CellId.from_face_pos_level(6, 0, 0)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            CellId.from_face_pos_level(0, 0, 31)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            CellId(1 << 64)

    def test_immutable(self):
        cell = CellId.from_degrees(0.0, 0.0)
        with pytest.raises(AttributeError):
            cell.id = 5

    def test_token_roundtrip(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(12)
        assert CellId.from_token(cell.to_token()) == cell

    def test_token_rejects_garbage(self):
        with pytest.raises(ValueError):
            CellId.from_token("")
        with pytest.raises(ValueError):
            CellId.from_token("x" * 17)


class TestHierarchy:
    def test_parent_chain_levels(self):
        cell = CellId.from_degrees(40.7, -74.0)
        for level in range(30, -1, -1):
            assert cell.parent(level).level == level

    def test_parent_default_one_up(self):
        cell = CellId.from_degrees(40.7, -74.0)
        assert cell.parent().level == 29

    def test_parent_above_own_level_rejected(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(10)
        with pytest.raises(ValueError):
            cell.parent(11)

    def test_children_have_parent(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(10)
        for child in cell.children():
            assert child.parent(10) == cell
            assert child.level == 11

    def test_leaf_has_no_children(self):
        with pytest.raises(ValueError):
            next(CellId.from_degrees(0.0, 0.0).children())

    def test_children_at_level_counts(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(10)
        assert len(list(cell.children_at_level(13))) == 64
        assert list(cell.children_at_level(10)) == [cell]

    @settings(max_examples=80)
    @given(random_cells(min_level=1))
    def test_parent_contains(self, cell):
        assert cell.parent(cell.level - 1).contains(cell)
        assert not cell.contains(cell.parent(cell.level - 1))

    @settings(max_examples=80)
    @given(random_cells(max_level=29))
    def test_children_tile_range_exactly(self, cell):
        kids = list(cell.children())
        assert kids[0].range_min() == cell.range_min()
        assert kids[3].range_max() == cell.range_max()
        for a, b in zip(kids, kids[1:]):
            assert a.range_max().id + 2 == b.range_min().id


class TestRanges:
    @settings(max_examples=80)
    @given(random_cells())
    def test_range_brackets_id(self, cell):
        assert cell.range_min().id <= cell.id <= cell.range_max().id

    @settings(max_examples=80)
    @given(random_cells(), random_cells())
    def test_containment_is_laminar(self, a, b):
        """Two cells either nest or are disjoint — never partially overlap."""
        a_lo, a_hi = a.range_min().id, a.range_max().id
        b_lo, b_hi = b.range_min().id, b.range_max().id
        overlap = a_lo <= b_hi and b_lo <= a_hi
        if overlap:
            assert a.contains(b) or b.contains(a)
        else:
            assert not a.intersects(b)

    @settings(max_examples=50)
    @given(random_cells(min_level=2))
    def test_contains_matches_prefix(self, cell):
        ancestor = cell.parent(cell.level - 2)
        assert ancestor.contains(cell)
        assert ancestor.intersects(cell)
        sibling_parent = cell.parent(cell.level - 1)
        for child in sibling_parent.children():
            assert ancestor.contains(child)


class TestGeometry:
    def test_center_maps_back(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(14)
        assert cell.contains(CellId.from_lat_lng(cell.to_lat_lng()))

    @settings(max_examples=40, deadline=None)
    @given(lat_values, lng_values, st.integers(min_value=4, max_value=28))
    def test_leaf_within_parent_rect(self, lat, lng, level):
        from repro.cells.cell import cell_bound_rect

        leaf = CellId.from_degrees(lat, lng)
        rect = cell_bound_rect(leaf.parent(level))
        assert rect.contains_point(lng, lat)


class TestDifference:
    def test_difference_size(self):
        cell = CellId.from_degrees(40.7, -74.0)
        anc = cell.parent(6)
        desc = cell.parent(10)
        assert len(cell_difference(anc, desc)) == 3 * 4

    def test_difference_of_self_is_empty(self):
        cell = CellId.from_degrees(40.7, -74.0).parent(6)
        assert cell_difference(cell, cell) == []

    def test_difference_requires_containment(self):
        a = CellId.from_degrees(40.7, -74.0).parent(10)
        b = CellId.from_degrees(-33.0, 151.0).parent(12)
        with pytest.raises(ValueError):
            cell_difference(a, b)

    @settings(max_examples=60)
    @given(random_cells(min_level=3, max_level=26), st.integers(min_value=1, max_value=4))
    def test_difference_tiles_ancestor(self, descendant_parent, depth):
        ancestor = descendant_parent
        descendant = ancestor
        for _ in range(depth):
            descendant = descendant.child(1)
        pieces = cell_difference(ancestor, descendant) + [descendant]
        ranges = sorted((p.range_min().id, p.range_max().id) for p in pieces)
        assert ranges[0][0] == ancestor.range_min().id
        assert ranges[-1][1] == ancestor.range_max().id
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi + 2 == lo
