"""Tests for the Hilbert/Morton curve machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import hilbert

ij_values = st.integers(min_value=0, max_value=(1 << 30) - 1)
faces = st.integers(min_value=0, max_value=5)


class TestTables:
    def test_table_sizes(self):
        assert len(hilbert.LOOKUP_POS) == 1024
        assert len(hilbert.LOOKUP_IJ) == 1024

    def test_tables_are_inverse(self):
        for ij in range(256):
            for orientation in range(4):
                looked = int(hilbert.LOOKUP_POS[(ij << 2) + orientation])
                pos = looked >> 2
                back = int(hilbert.LOOKUP_IJ[(pos << 2) + orientation])
                assert back >> 2 == ij

    def test_pos_to_ij_permutations(self):
        for row in hilbert.POS_TO_IJ:
            assert sorted(row) == [0, 1, 2, 3]

    def test_ij_to_pos_inverse_of_pos_to_ij(self):
        for orientation in range(4):
            for pos in range(4):
                ij = hilbert.POS_TO_IJ[orientation][pos]
                assert hilbert.IJ_TO_POS[orientation][ij] == pos


class TestRoundTrip:
    @settings(max_examples=200)
    @given(faces, ij_values, ij_values)
    def test_hilbert_roundtrip(self, face, i, j):
        pos = hilbert.leaf_pos_from_ij(face, i, j)
        assert 0 <= pos < 1 << 60
        i2, j2, _ = hilbert.ij_from_leaf_pos(face, pos)
        assert (i2, j2) == (i, j)

    @settings(max_examples=100)
    @given(faces, ij_values, ij_values)
    def test_morton_roundtrip(self, face, i, j):
        pos = hilbert.leaf_pos_from_ij_morton(face, i, j)
        i2, j2, _ = hilbert.ij_from_leaf_pos_morton(face, pos)
        assert (i2, j2) == (i, j)

    def test_bijectivity_small_block(self):
        # All 16x16 leaf blocks map to distinct positions.
        seen = set()
        for i in range(16):
            for j in range(16):
                seen.add(hilbert.leaf_pos_from_ij(0, i << 26, j << 26))
        assert len(seen) == 256


class TestCurveProperties:
    @settings(max_examples=100)
    @given(faces, ij_values, ij_values, st.integers(min_value=1, max_value=29))
    def test_prefix_property(self, face, i, j, level):
        """Section 2's requirement: children share the parent's prefix.

        Leaves within the same level-``level`` cell must agree on their top
        2*level position bits.
        """
        shift = 30 - level
        # Two leaves inside the same level-`level` cell:
        i2 = (i >> shift << shift) | (~i & ((1 << shift) - 1))
        j2 = (j >> shift << shift) | (j & ((1 << shift) - 1))
        pos1 = hilbert.leaf_pos_from_ij(face, i, j)
        pos2 = hilbert.leaf_pos_from_ij(face, i2, j2)
        assert pos1 >> (2 * shift) == pos2 >> (2 * shift)

    @settings(max_examples=100)
    @given(faces, ij_values, ij_values, st.integers(min_value=1, max_value=29))
    def test_prefix_property_morton(self, face, i, j, level):
        shift = 30 - level
        i2 = (i >> shift << shift) | (~i & ((1 << shift) - 1))
        j2 = (j >> shift << shift) | (j & ((1 << shift) - 1))
        pos1 = hilbert.leaf_pos_from_ij_morton(face, i, j)
        pos2 = hilbert.leaf_pos_from_ij_morton(face, i2, j2)
        assert pos1 >> (2 * shift) == pos2 >> (2 * shift)

    def test_hilbert_adjacency(self):
        """Consecutive curve positions are edge-adjacent cells (the locality
        property that motivates Hilbert over Morton)."""
        base_i, base_j = 5 << 20, 9 << 20
        start = hilbert.leaf_pos_from_ij(2, base_i, base_j)
        i_prev, j_prev, _ = hilbert.ij_from_leaf_pos(2, start)
        for step in range(1, 200):
            i, j, _ = hilbert.ij_from_leaf_pos(2, start + step)
            assert abs(i - i_prev) + abs(j - j_prev) == 1
            i_prev, j_prev = i, j

    def test_faces_differ_in_orientation(self):
        pos_even = hilbert.leaf_pos_from_ij(0, 12345, 67890)
        pos_odd = hilbert.leaf_pos_from_ij(1, 12345, 67890)
        assert pos_even != pos_odd
