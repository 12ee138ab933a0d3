"""Tests for the cube projection and grid metrics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import metrics
from repro.cells.latlng import LatLng
from repro.cells.projections import (
    MAX_SIZE,
    face_uv_to_xyz,
    st_to_uv,
    uv_to_st,
    st_to_ij,
    xyz_to_face_uv,
)

unit = st.floats(min_value=0.0, max_value=1.0)
uv_range = st.floats(min_value=-1.0, max_value=1.0)


class TestStUv:
    def test_endpoints(self):
        assert st_to_uv(0.0) == -1.0
        assert st_to_uv(1.0) == 1.0
        assert st_to_uv(0.5) == 0.0

    @given(unit)
    def test_roundtrip(self, s):
        assert uv_to_st(st_to_uv(s)) == pytest.approx(s, abs=1e-12)

    @given(unit, unit)
    def test_monotone(self, s1, s2):
        # Weakly monotone at float resolution (denormal-close inputs can
        # collapse to the same uv), strictly monotone at any visible gap.
        if s1 < s2:
            assert st_to_uv(s1) <= st_to_uv(s2)
        if s1 + 1e-12 < s2:
            assert st_to_uv(s1) < st_to_uv(s2)


class TestFaceProjection:
    @settings(max_examples=150)
    @given(
        st.floats(min_value=-89.9, max_value=89.9),
        st.floats(min_value=-179.9, max_value=179.9),
    )
    def test_xyz_faceuv_roundtrip(self, lat, lng):
        x, y, z = LatLng(lat, lng).to_xyz()
        face, u, v = xyz_to_face_uv(x, y, z)
        assert 0 <= face < 6
        assert -1.0 - 1e-9 <= u <= 1.0 + 1e-9
        assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9
        x2, y2, z2 = face_uv_to_xyz(face, u, v)
        norm = math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
        assert (x2 / norm, y2 / norm, z2 / norm) == (
            pytest.approx(x, abs=1e-12),
            pytest.approx(y, abs=1e-12),
            pytest.approx(z, abs=1e-12),
        )

    def test_face_axes(self):
        assert xyz_to_face_uv(1.0, 0.0, 0.0)[0] == 0
        assert xyz_to_face_uv(0.0, 1.0, 0.0)[0] == 1
        assert xyz_to_face_uv(0.0, 0.0, 1.0)[0] == 2
        assert xyz_to_face_uv(-1.0, 0.0, 0.0)[0] == 3
        assert xyz_to_face_uv(0.0, -1.0, 0.0)[0] == 4
        assert xyz_to_face_uv(0.0, 0.0, -1.0)[0] == 5

    def test_invalid_face_rejected(self):
        with pytest.raises(ValueError):
            face_uv_to_xyz(7, 0.0, 0.0)

    def test_st_to_ij_clamps(self):
        assert st_to_ij(-0.5) == 0
        assert st_to_ij(1.5) == MAX_SIZE - 1
        assert st_to_ij(0.0) == 0


class TestLatLng:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatLng(91.0, 0.0)
        with pytest.raises(ValueError):
            LatLng(0.0, 181.0)

    @settings(max_examples=100)
    @given(
        st.floats(min_value=-89.0, max_value=89.0),
        st.floats(min_value=-179.0, max_value=179.0),
    )
    def test_xyz_roundtrip(self, lat, lng):
        point = LatLng(lat, lng)
        back = LatLng.from_xyz(*point.to_xyz())
        assert back.lat == pytest.approx(lat, abs=1e-9)
        assert back.lng == pytest.approx(lng, abs=1e-9)


class TestMetrics:
    def test_paper_precision_levels(self):
        """The paper's statement: 4 m needs level 22 (21 is too coarse)."""
        assert metrics.level_for_max_diag_meters(4.0) == 22
        assert metrics.level_for_max_diag_meters(15.0) == 20
        assert metrics.level_for_max_diag_meters(60.0) == 18

    def test_max_diag_monotone(self):
        for level in range(29):
            assert metrics.max_diag_meters(level) > metrics.max_diag_meters(level + 1)

    def test_diag_bound_satisfied(self):
        for meters in (1.0, 3.3, 10.0, 100.0, 5000.0):
            level = metrics.level_for_max_diag_meters(meters)
            assert metrics.max_diag_meters(level) <= meters or level == 30

    def test_rejects_nonpositive(self):
        import pytest

        with pytest.raises(ValueError):
            metrics.level_for_max_diag_meters(0.0)

    def test_avg_area_halves_quadratically(self):
        ratio = metrics.avg_area_sq_meters(10) / metrics.avg_area_sq_meters(11)
        assert ratio == pytest.approx(4.0)
