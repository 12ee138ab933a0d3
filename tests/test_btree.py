"""Tests for the GBT baseline: the bulk-loaded B-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BTreeStore, SortedVectorStore
from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering

BASE = CellId.from_degrees(40.7, -74.0)


def dense_covering(num_cells: int, level: int = 12) -> SuperCovering:
    covering = SuperCovering()
    added = 0
    for cell in BASE.parent(6).children_at_level(level):
        covering.insert(cell, [PolygonRef(added % 100, added % 2 == 0)])
        added += 1
        if added >= num_cells:
            break
    return covering


class TestStructure:
    def test_single_node_tree(self):
        covering = dense_covering(5)
        store = BTreeStore(covering)
        assert store.height == 1

    def test_multi_level_tree(self):
        covering = dense_covering(1000)
        store = BTreeStore(covering)
        assert store.height >= 3  # 1000 keys at fanout 16

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            BTreeStore(SuperCovering(), fanout=1)

    def test_size_grows_with_cells(self):
        small = BTreeStore(dense_covering(10))
        large = BTreeStore(dense_covering(1000))
        assert large.size_bytes > small.size_bytes

    def test_counter_models(self):
        store = BTreeStore(dense_covering(1000))
        assert store.node_accesses_per_probe() == store.height
        assert store.comparisons_per_probe() == store.height * 4.0  # log2(16)
        assert store.cache_lines_per_probe() == store.height * 3.0

    def test_describe(self):
        info = BTreeStore(dense_covering(50)).describe()
        assert info["variant"] == "GBT"
        assert info["num_cells"] == 50


class TestProbe:
    def test_matches_sorted_vector_dense(self):
        covering = dense_covering(3000)
        btree = BTreeStore(covering)
        reference = SortedVectorStore(covering)
        generator = np.random.default_rng(17)
        lats = generator.uniform(40.4, 41.0, 20_000)
        lngs = generator.uniform(-74.3, -73.7, 20_000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        # One entry encoder: both stores' own tables lay out alike.
        assert np.array_equal(btree.probe(ids), reference.probe(ids))

    def test_chunk_boundaries(self, monkeypatch):
        covering = dense_covering(500)
        btree = BTreeStore(covering)
        reference = SortedVectorStore(covering)
        generator = np.random.default_rng(23)
        lats = generator.uniform(40.6, 40.8, 1000)
        lngs = generator.uniform(-74.1, -73.9, 1000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        full = btree.probe(ids)
        monkeypatch.setattr(BTreeStore, "CHUNK", 13)
        chunked = btree.probe(ids)
        assert np.array_equal(full, chunked)
        assert np.array_equal(full, reference.probe(ids))

    def test_query_below_min_key_misses(self):
        covering = SuperCovering()
        covering.insert(BASE.parent(12), [PolygonRef(1, False)])
        store = BTreeStore(covering)
        below = np.asarray([1], dtype=np.uint64)  # leaf id on face 0
        assert store.probe(below)[0] == 0

    def test_empty_store(self):
        store = BTreeStore(SuperCovering())
        assert store.probe(np.asarray([BASE.id], dtype=np.uint64))[0] == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
    def test_random_sizes_match_reference(self, num_cells, seed):
        covering = dense_covering(num_cells)
        btree = BTreeStore(covering)
        reference = SortedVectorStore(covering)
        generator = np.random.default_rng(seed)
        lats = generator.uniform(40.65, 40.75, 100)
        lngs = generator.uniform(-74.05, -73.95, 100)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        assert np.array_equal(btree.probe(ids), reference.probe(ids))
