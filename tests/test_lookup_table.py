"""Tests for the tagged-entry encoding and the lookup table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.lookup_table import (
    TAG_OFFSET,
    TAG_ONE_REF,
    TAG_TWO_REFS,
    LookupTable,
)
from repro.core.refs import PolygonRef


def refs_strategy(min_size=1, max_size=8):
    return st.lists(
        st.integers(min_value=0, max_value=1000), unique=True,
        min_size=min_size, max_size=max_size,
    ).flatmap(
        lambda ids: st.tuples(*[st.booleans() for _ in ids]).map(
            lambda flags: tuple(
                PolygonRef(pid, flag) for pid, flag in zip(sorted(ids), flags)
            )
        )
    )


class TestEncoding:
    def test_one_ref_inlined(self):
        table = LookupTable()
        entry = table.encode((PolygonRef(7, True),))
        assert entry & 3 == TAG_ONE_REF
        assert len(table) == 0  # nothing spilled to the table

    def test_two_refs_inlined(self):
        table = LookupTable()
        entry = table.encode((PolygonRef(7, True), PolygonRef(9, False)))
        assert entry & 3 == TAG_TWO_REFS
        assert len(table) == 0

    def test_three_refs_use_offset(self):
        table = LookupTable()
        refs = (PolygonRef(1, True), PolygonRef(2, False), PolygonRef(3, False))
        entry = table.encode(refs)
        assert entry & 3 == TAG_OFFSET
        assert len(table) > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LookupTable().encode(())

    def test_oversized_polygon_id_rejected(self):
        with pytest.raises(ValueError):
            LookupTable().encode((PolygonRef(1 << 30, False),))

    def test_max_polygon_id_roundtrips(self):
        table = LookupTable()
        refs = (PolygonRef((1 << 30) - 1, True),)
        assert table.decode_entry(table.encode(refs)) == refs

    @given(refs_strategy())
    def test_roundtrip(self, refs):
        table = LookupTable()
        assert table.decode_entry(table.encode(refs)) == refs


class TestArrayLayout:
    def test_encoding_structure(self):
        table = LookupTable()
        refs = (PolygonRef(10, True), PolygonRef(20, False), PolygonRef(30, False))
        entry = table.encode(refs)
        offset = entry >> 2
        data = table.array
        assert data[offset] == 1  # one true hit
        assert data[offset + 1] == 10
        assert data[offset + 2] == 2  # two candidates
        assert list(data[offset + 3 : offset + 5]) == [20, 30]

    def test_size_bytes(self):
        table = LookupTable()
        table.encode((PolygonRef(1, True), PolygonRef(2, False), PolygonRef(3, False)))
        assert table.size_bytes == 4 * len(table)

    def test_decode_pointer_entry_rejected(self):
        with pytest.raises(ValueError):
            LookupTable().decode_entry(0b100)  # tag 0 = pointer

    def test_array_refreshes_after_insert(self):
        table = LookupTable()
        table.encode((PolygonRef(1, True), PolygonRef(2, False), PolygonRef(3, False)))
        first = len(table.array)
        table.encode((PolygonRef(5, True), PolygonRef(6, False), PolygonRef(7, False)))
        assert len(table.array) > first


@st.composite
def coverings(draw):
    """Disjoint sibling cells with reference rows of every length, many of
    them repeated (the same polygons cover neighbouring cells)."""
    from repro.cells import CellId

    rows = draw(st.lists(refs_strategy(max_size=6), min_size=1, max_size=5))
    base = CellId.from_degrees(40.7, -74.0).parent(8)
    cells = [base.child(a).child(b) for a in range(4) for b in range(4)]
    picks = draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=len(cells))
    )
    return [(cell, rows[pick]) for cell, pick in zip(cells, picks)]


class TestEncodeCovering:
    @given(coverings(), st.randoms(use_true_random=False))
    def test_decodes_to_refs_and_ignores_insertion_order(self, rows, random):
        from repro.core.super_covering import SuperCovering

        tables = []
        for order in (rows, random.sample(rows, len(rows))):
            covering = SuperCovering()
            for cell, refs in order:
                covering.insert(cell, refs)
            table = LookupTable()
            entries = table.encode_covering(covering)
            assert len(entries) == covering.num_cells
            for entry, (cell, refs) in zip(entries.tolist(), covering.items()):
                assert table.decode_entry(entry) == refs == covering.refs_for(cell)
                # The scalar encoder agrees, and finds the row interned.
                assert table.encode(refs) == entry
            tables.append((entries.tolist(), table.array.tolist()))
        assert tables[0] == tables[1]
        # Each distinct long list is stored once, re-encodes included.
        distinct_long = {refs for _, refs in rows if len(refs) > 2}
        assert len(table) == sum(2 + len(refs) for refs in distinct_long)

    def test_empty_rows_and_wide_ids_rejected(self):
        import numpy as np

        from repro.cells import CellId
        from repro.core.super_covering import SuperCovering

        cell = np.asarray([CellId.from_degrees(40.7, -74.0).parent(9).id], dtype=np.uint64)
        empty = SuperCovering.attach(cell, np.asarray([0, 0]), np.zeros(0, dtype=np.uint32))
        with pytest.raises(ValueError, match=">= 1 polygon"):
            LookupTable().encode_covering(empty)
        wide = SuperCovering.attach(
            cell, np.asarray([0, 1]), np.asarray([1 << 31], dtype=np.uint32)
        )
        with pytest.raises(ValueError, match="30-bit"):
            LookupTable().encode_covering(wide)
        with pytest.raises(TypeError, match="read-only"):
            LookupTable.attach(np.zeros(0, dtype=np.uint32)).encode_covering(empty)
