"""Tests for the LB baseline: binary search on a sorted cell vector."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SortedVectorStore
from repro.cells import CellId
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering

BASE = CellId.from_degrees(40.7, -74.0)


def brute_force_lookup(covering: SuperCovering, query: int):
    for cell, refs in covering.items():
        if cell.range_min().id <= query <= cell.range_max().id:
            return refs
    return ()


@st.composite
def covering_and_queries(draw):
    covering = SuperCovering()
    count = draw(st.integers(min_value=1, max_value=8))
    for pid in range(count):
        level = draw(st.integers(min_value=4, max_value=18))
        cell = BASE.parent(2)
        for _ in range(level - 2):
            cell = cell.child(draw(st.integers(min_value=0, max_value=3)))
        covering.insert(cell, [PolygonRef(pid, draw(st.booleans()))])
    queries = draw(
        st.lists(st.integers(min_value=0, max_value=(1 << 62)), min_size=1, max_size=10)
    )
    # Leaf-align query ids (odd) and keep faces valid.
    queries = [((q | 1) & ((1 << 64) - 1)) % (6 << 61) for q in queries]
    return covering, queries


class TestProbe:
    def test_hit_and_miss(self):
        covering = SuperCovering()
        cell = BASE.parent(10)
        covering.insert(cell, [PolygonRef(7, True)])
        store = SortedVectorStore(covering)
        hit = store.probe(np.asarray([BASE.id], dtype=np.uint64))
        assert store.lookup_table.decode_entry(int(hit[0])) == (PolygonRef(7, True),)
        miss_id = CellId.from_degrees(10.0, 10.0).id
        miss = store.probe(np.asarray([miss_id], dtype=np.uint64))
        assert miss[0] == 0

    def test_empty_store(self):
        store = SortedVectorStore(SuperCovering())
        out = store.probe(np.asarray([BASE.id], dtype=np.uint64))
        assert out[0] == 0

    def test_boundary_ids(self):
        covering = SuperCovering()
        cell = BASE.parent(12)
        covering.insert(cell, [PolygonRef(1, False)])
        store = SortedVectorStore(covering)
        edges = np.asarray(
            [cell.range_min().id, cell.range_max().id], dtype=np.uint64
        )
        out = store.probe(edges)
        assert out[0] != 0 and out[1] != 0
        outside = np.asarray(
            [cell.range_min().id - 2, cell.range_max().id + 2], dtype=np.uint64
        )
        out = store.probe(outside)
        assert out[0] == 0 and out[1] == 0

    @settings(max_examples=60, deadline=None)
    @given(covering_and_queries())
    def test_matches_brute_force(self, data):
        covering, queries = data
        store = SortedVectorStore(covering)
        out = store.probe(np.asarray(queries, dtype=np.uint64))
        for k, query in enumerate(queries):
            expected = brute_force_lookup(covering, query)
            got = store.lookup_table.decode_entry(int(out[k])) if out[k] else ()
            assert tuple(got) == tuple(expected)


class TestAccounting:
    def test_size_model(self):
        covering = SuperCovering()
        covering.insert(BASE.parent(10), [PolygonRef(1, False)])
        covering.insert(BASE.parent(10).parent(8).child(1), [PolygonRef(2, False)])
        store = SortedVectorStore(covering)
        assert store.size_bytes == 16 * store.num_cells + store.lookup_table.size_bytes

    def test_comparisons_model(self):
        covering = SuperCovering()
        for k, child in enumerate(BASE.parent(5).children()):
            covering.insert(child, [PolygonRef(k, False)])
        store = SortedVectorStore(covering)
        assert store.comparisons_per_probe() == 2.0  # log2(4)

    def test_describe(self):
        covering = SuperCovering()
        covering.insert(BASE.parent(10), [PolygonRef(1, False)])
        info = SortedVectorStore(covering).describe()
        assert info["variant"] == "LB"
        assert info["num_cells"] == 1
