"""Tests for the Node4 ablation trie (paper's rejected ART-style design)."""

import numpy as np
import pytest

from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.cells.coverer import CovererOptions, RegionCoverer
from repro.core.act import AdaptiveCellTrie
from repro.baselines import CompressedCellTrie
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering, build_super_covering
from repro.geo.polygon import regular_polygon

BASE = CellId.from_degrees(40.7, -74.0)


@pytest.fixture(scope="module")
def covering():
    polygons = [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]
    coverer = RegionCoverer(CovererOptions(max_cells=64, max_level=16))
    interior = RegionCoverer(CovererOptions(max_cells=64, max_level=14))
    return build_super_covering(
        (pid, coverer.covering(p), interior.interior_covering(p))
        for pid, p in enumerate(polygons)
    )


@pytest.fixture(scope="module")
def query_ids():
    generator = np.random.default_rng(81)
    lats = generator.uniform(40.66, 40.78, 25_000)
    lngs = generator.uniform(-74.04, -73.92, 25_000)
    return cell_ids_from_lat_lng_arrays(lats, lngs)


class TestEquivalence:
    @pytest.mark.parametrize("fanout_bits", [2, 4, 8])
    def test_probe_identical_to_uncompressed(self, covering, query_ids, fanout_bits):
        plain = AdaptiveCellTrie(covering, fanout_bits)
        compressed = CompressedCellTrie(covering, fanout_bits)
        assert (plain.probe(query_ids) == compressed.probe(query_ids)).all()

    def test_sparse_single_cell_tree(self, query_ids):
        covering = SuperCovering()
        covering.insert(BASE.parent(16), [PolygonRef(1, True)])
        plain = AdaptiveCellTrie(covering, 8)
        compressed = CompressedCellTrie(covering, 8)
        assert (plain.probe(query_ids) == compressed.probe(query_ids)).all()
        # A chain of single-child nodes compresses almost entirely.
        assert compressed.num_node4 > 0

    def test_empty_covering(self, query_ids):
        compressed = CompressedCellTrie(SuperCovering(), 8)
        assert (compressed.probe(query_ids) == 0).all()


class TestPaperClaims:
    def test_memory_savings_are_modest(self, covering):
        """Node4 nodes exist but do not shrink the index dramatically
        (the paper: "saves only a negligible amount of space")."""
        plain = AdaptiveCellTrie(covering, 8)
        compressed = CompressedCellTrie(covering, 8)
        assert compressed.size_bytes <= plain.size_bytes
        # Savings exist but stay well under an order of magnitude.
        assert compressed.size_bytes > plain.size_bytes / 10

    def test_describe(self, covering):
        info = CompressedCellTrie(covering, 8).describe()
        assert info["variant"] == "ACT4+Node4"
        assert info["num_full_nodes"] + info["num_node4"] > 0
