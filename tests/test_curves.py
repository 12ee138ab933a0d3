"""Tests for curve independence: ACT over Morton-re-encoded cell ids."""

import numpy as np

from oracles import face_uv_from_xyz, ij_from_st, st_from_uv
from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.cells.curves import (
    cell_id_to_morton,
    morton_cell_ids_from_lat_lng_arrays,
    morton_leaf_ids_from_face_ij,
    reencode_super_covering_morton,
)
from repro.cells.coverer import CovererOptions, RegionCoverer
from repro.core.act import AdaptiveCellTrie
from repro.core.joins import accurate_join
from repro.core.super_covering import build_super_covering
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon


class TestMortonEncoding:
    def test_leaf_roundtrip_structure(self):
        cell = CellId.from_degrees(40.7, -74.0)
        morton = cell_id_to_morton(cell.id)
        assert morton & 1 == 1  # still a leaf
        assert morton >> 61 == cell.face  # face preserved

    def test_level_preserved(self):
        cell = CellId.from_degrees(40.7, -74.0)
        for level in (0, 5, 13, 24, 30):
            morton = CellId(cell_id_to_morton(cell.parent(level).id))
            assert morton.level == level

    def test_nesting_preserved(self):
        """Parent/child prefixes survive the re-encoding."""
        cell = CellId.from_degrees(40.7, -74.0)
        for level in range(1, 30):
            child = CellId(cell_id_to_morton(cell.parent(level).id))
            parent = CellId(cell_id_to_morton(cell.parent(level - 1).id))
            assert parent.contains(child)

    def test_disjointness_preserved(self):
        a = CellId.from_degrees(40.7, -74.0).parent(12)
        b = CellId.from_degrees(40.8, -73.9).parent(12)
        ma = CellId(cell_id_to_morton(a.id))
        mb = CellId(cell_id_to_morton(b.id))
        assert not ma.intersects(mb)

    def test_vectorized_matches_scalar(self, rng):
        faces = rng.integers(0, 6, 100)
        i = rng.integers(0, 1 << 30, 100)
        j = rng.integers(0, 1 << 30, 100)
        vec = morton_leaf_ids_from_face_ij(faces, i, j)
        from repro.cells.hilbert import leaf_pos_from_ij_morton

        for k in range(0, 100, 7):
            pos = leaf_pos_from_ij_morton(int(faces[k]), int(i[k]), int(j[k]))
            expected = (int(faces[k]) << 61) | (pos << 1) | 1
            assert int(vec[k]) == expected

    def test_point_ids_consistent_with_cells(self, rng):
        """A Morton point id falls inside the Morton id of its Hilbert cell."""
        lats = rng.uniform(40.6, 40.8, 200)
        lngs = rng.uniform(-74.1, -73.9, 200)
        hilbert_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        morton_ids = morton_cell_ids_from_lat_lng_arrays(lats, lngs)
        for k in range(0, 200, 11):
            cell = CellId(int(hilbert_ids[k])).parent(14)
            morton_cell = CellId(cell_id_to_morton(cell.id))
            assert morton_cell.contains(CellId(int(morton_ids[k])))

    def test_point_ids_equal_the_staged_projection(self, rng):
        """The projection shared with the Hilbert kernel since 1.13.0
        gives the Morton ids the stage-at-a-time projection gave."""
        lats = np.degrees(np.arcsin(rng.uniform(-1, 1, 20_000)))
        lngs = rng.uniform(-180, 180, 20_000)
        phi, theta = np.radians(lats), np.radians(lngs)
        face, u, v = face_uv_from_xyz(
            np.cos(phi) * np.cos(theta), np.cos(phi) * np.sin(theta), np.sin(phi)
        )
        staged = morton_leaf_ids_from_face_ij(
            face, ij_from_st(st_from_uv(u)), ij_from_st(st_from_uv(v))
        )
        assert np.array_equal(morton_cell_ids_from_lat_lng_arrays(lats, lngs), staged)


class TestMortonJoin:
    def test_act_on_morton_equals_act_on_hilbert(self):
        """The paper's curve-independence claim, end to end."""
        polygons = [
            regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 12)
            for gx in range(2)
            for gy in range(2)
        ]
        coverer = RegionCoverer(CovererOptions(max_cells=64, max_level=16))
        interior = RegionCoverer(CovererOptions(max_cells=64, max_level=14))
        covering = build_super_covering(
            (pid, coverer.covering(p), interior.interior_covering(p))
            for pid, p in enumerate(polygons)
        )
        morton_covering = reencode_super_covering_morton(covering)
        morton_covering.check_disjoint()
        assert morton_covering.num_cells == covering.num_cells

        generator = np.random.default_rng(71)
        lngs = generator.uniform(-74.03, -73.95, 10_000)
        lats = generator.uniform(40.68, 40.74, 10_000)
        hilbert_ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        morton_ids = morton_cell_ids_from_lat_lng_arrays(lats, lngs)

        act_h = AdaptiveCellTrie(covering, 8)
        act_m = AdaptiveCellTrie(morton_covering, 8)
        result_h = accurate_join(act_h, hilbert_ids, polygons, lngs, lats)
        result_m = accurate_join(act_m, morton_ids, polygons, lngs, lats)
        brute = np.array([contains_points(p, lngs, lats).sum() for p in polygons])
        assert (result_h.counts == brute).all()
        assert (result_m.counts == brute).all()
