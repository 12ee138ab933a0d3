"""Unit and property tests for the point-in-polygon kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.pip import contains_point, contains_points
from repro.geo.polygon import Polygon, regular_polygon

SQUARE = Polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])


class TestScalar:
    def test_inside(self):
        assert contains_point(SQUARE, 1.0, 1.0)

    def test_outside(self):
        assert not contains_point(SQUARE, 3.0, 1.0)

    def test_outside_mbr_shortcut(self):
        assert not contains_point(SQUARE, 100.0, 100.0)

    def test_hole_excluded(self, holed_polygon):
        lng, lat = -74.0, 40.71  # center of the hole
        assert not contains_point(holed_polygon, lng, lat)

    def test_between_hole_and_outer(self, holed_polygon):
        assert contains_point(holed_polygon, -74.008, 40.701)

    def test_concave_polygon(self):
        # A "C" shape: the notch is outside.
        c_shape = Polygon(
            [(0, 0), (3, 0), (3, 1), (1, 1), (1, 2), (3, 2), (3, 3), (0, 3)]
        )
        assert contains_point(c_shape, 0.5, 1.5)
        assert not contains_point(c_shape, 2.0, 1.5)

    def test_horizontal_edges_ignored(self):
        # Ray through a horizontal edge must not double count.
        assert contains_point(SQUARE, 1.0, 1.0)


class TestVectorized:
    def test_matches_scalar(self, rng):
        polygon = regular_polygon((0.0, 0.0), 1.0, 17)
        lngs = rng.uniform(-1.5, 1.5, 2000)
        lats = rng.uniform(-1.5, 1.5, 2000)
        vec = contains_points(polygon, lngs, lats)
        for k in range(0, 2000, 97):
            assert vec[k] == contains_point(polygon, lngs[k], lats[k])

    def test_empty_input(self):
        result = contains_points(SQUARE, np.zeros(0), np.zeros(0))
        assert result.shape == (0,)

    def test_chunking_consistent(self, rng, monkeypatch):
        import repro.geo.pip as pip_module

        polygon = regular_polygon((0.0, 0.0), 1.0, 9)
        lngs = rng.uniform(-1.5, 1.5, 5000)
        lats = rng.uniform(-1.5, 1.5, 5000)
        full = contains_points(polygon, lngs, lats)
        monkeypatch.setattr(pip_module, "_CHUNK_PAIRS", 100)
        chunked = contains_points(polygon, lngs, lats)
        assert (full == chunked).all()

    def test_holes(self, holed_polygon, rng):
        lngs = rng.uniform(-74.012, -73.988, 3000)
        lats = rng.uniform(40.699, 40.721, 3000)
        result = contains_points(holed_polygon, lngs, lats)
        for k in range(0, 3000, 151):
            assert result[k] == contains_point(holed_polygon, lngs[k], lats[k])


class TestProperties:
    @settings(max_examples=50)
    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=-0.99, max_value=0.99),
        st.integers(min_value=3, max_value=40),
    )
    def test_regular_polygon_analytic(self, x, y, num_vertices):
        """Membership in a regular polygon has a closed form: compare."""
        polygon = regular_polygon((0.0, 0.0), 1.0, num_vertices)
        # Analytic: inside iff for every edge, point is on the inner side.
        xs = polygon.outer.lngs
        ys = polygon.outer.lats
        xr = np.roll(xs, -1)
        yr = np.roll(ys, -1)
        cross = (xr - xs) * (y - ys) - (yr - ys) * (x - xs)
        analytic_inside = bool(np.all(cross > 0))
        analytic_outside = bool(np.any(cross < 0))
        result = contains_point(polygon, x, y)
        if analytic_inside:
            assert result
        elif analytic_outside:
            assert not result
        # Points exactly on an edge (measure zero) may go either way.

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        polygon = regular_polygon((0.0, 0.0), 1.0, 11)
        shifted = regular_polygon((5.0, -3.0), 1.0, 11)
        x = rng.uniform(-1.2, 1.2)
        y = rng.uniform(-1.2, 1.2)
        assert contains_point(polygon, x, y) == contains_point(shifted, x + 5.0, y - 3.0)
