"""Tests for precision-bound refinement (Section 3.2).

Guarantees under test:

* after refinement, every candidate (boundary) cell has a level whose max
  diagonal is below the bound,
* the accurate join is unchanged (refinement never loses join results),
* approximate-join false positives lie within the bound of the polygon.
"""

import math

import numpy as np
import pytest

from repro.cells import CellId, level_for_max_diag_meters
from repro.cells.metrics import EARTH_RADIUS_METERS
from repro.core import PolygonIndex
from repro.core.precision import refine_to_precision
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon

from oracles import classify_descendants

_METERS_PER_DEGREE = EARTH_RADIUS_METERS * math.pi / 180.0


def point_to_polygon_distance_meters(polygon, lng, lat) -> float:
    """Distance from a point to the polygon boundary (planar, city-scale)."""
    x0, y0, x1, y1 = polygon.all_edges()
    scale_x = math.cos(math.radians(lat)) * _METERS_PER_DEGREE
    scale_y = _METERS_PER_DEGREE
    ax = (x0 - lng) * scale_x
    ay = (y0 - lat) * scale_y
    bx = (x1 - lng) * scale_x
    by = (y1 - lat) * scale_y
    dx = bx - ax
    dy = by - ay
    lengths_sq = dx * dx + dy * dy
    t = np.clip(np.where(lengths_sq > 0, -(ax * dx + ay * dy) / np.where(lengths_sq > 0, lengths_sq, 1.0), 0.0), 0.0, 1.0)
    px = ax + t * dx
    py = ay + t * dy
    return float(np.sqrt(px * px + py * py).min())


@pytest.fixture(scope="module")
def grid_index_parts(overlap_grid_polygons=None):
    from repro.geo.polygon import regular_polygon as rp

    polygons = [
        rp((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]
    generator = np.random.default_rng(5)
    lngs = generator.uniform(-74.03, -73.93, 40_000)
    lats = generator.uniform(40.67, 40.77, 40_000)
    brute = np.vstack([contains_points(p, lngs, lats) for p in polygons])
    return polygons, lngs, lats, brute


class TestRefinement:
    @pytest.mark.parametrize("precision", [60.0, 15.0])
    def test_boundary_cells_at_required_level(self, grid_index_parts, precision):
        polygons, _, _, _ = grid_index_parts
        index = PolygonIndex.build(polygons, precision_meters=precision)
        target = level_for_max_diag_meters(precision)
        for cell, refs in index.super_covering.items():
            if any(not ref.interior for ref in refs):
                assert cell.level >= target

    def test_exact_join_unchanged(self, grid_index_parts):
        polygons, lngs, lats, brute = grid_index_parts
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        result = index.join(lats, lngs, exact=True)
        assert (result.counts == brute.sum(axis=1)).all()

    def test_false_positives_within_bound(self, grid_index_parts):
        polygons, lngs, lats, brute = grid_index_parts
        precision = 30.0
        index = PolygonIndex.build(polygons, precision_meters=precision)
        result = index.join(lats, lngs, materialize=True)
        for pt, pid in zip(result.pair_points, result.pair_polygons):
            if not brute[pid, pt]:
                distance = point_to_polygon_distance_meters(
                    polygons[pid], lngs[pt], lats[pt]
                )
                assert distance <= precision * 1.05  # tiny slack for planar math

    def test_error_shrinks_with_precision(self, grid_index_parts):
        polygons, lngs, lats, brute = grid_index_parts
        errors = []
        for precision in (120.0, 30.0):
            index = PolygonIndex.build(polygons, precision_meters=precision)
            approx = index.join(lats, lngs)
            errors.append(abs(approx.counts - brute.sum(axis=1)).sum())
        assert errors[1] < errors[0]

    def test_pip_tests_shrink_with_precision(self, grid_index_parts):
        polygons, lngs, lats, _ = grid_index_parts
        coarse = PolygonIndex.build(polygons)
        fine = PolygonIndex.build(polygons, precision_meters=30.0)
        coarse_pip = coarse.join(lats, lngs, exact=True).num_pip_tests
        fine_pip = fine.join(lats, lngs, exact=True).num_pip_tests
        assert fine_pip < coarse_pip

    def test_refine_returns_target_level(self, grid_index_parts):
        polygons, _, _, _ = grid_index_parts
        index = PolygonIndex.build(polygons)
        target = refine_to_precision(index.super_covering, polygons, 60.0)
        assert target == level_for_max_diag_meters(60.0)


class TestClassifyDescendants:
    """The recursive descent, now the parity oracle of the round loop
    (``tests/test_build_parity.py`` holds the two against each other)."""

    def test_uniform_inside_kept_coarse(self):
        polygon = regular_polygon((-74.0, 40.7), 0.05, 16)
        cell = CellId.from_degrees(40.7, -74.0).parent(14)  # deep inside
        results = classify_descendants(cell, [0], {0: polygon}, target_level=18)
        assert results == [(cell, [type(results[0][1][0])(0, True)])] or (
            len(results) == 1 and results[0][0] == cell and results[0][1][0].interior
        )

    def test_disjoint_dropped(self):
        polygon = regular_polygon((-74.0, 40.7), 0.001, 8)
        far_cell = CellId.from_degrees(41.5, -72.0).parent(12)
        results = classify_descendants(far_cell, [0], {0: polygon}, target_level=16)
        assert results == []

    def test_boundary_split_to_target(self):
        polygon = regular_polygon((-74.0, 40.7), 0.01, 12)
        cell = CellId.from_degrees(40.7, -73.9905).parent(12)  # straddles edge
        results = classify_descendants(cell, [0], {0: polygon}, target_level=15)
        boundary = [c for c, refs in results if any(not r.interior for r in refs)]
        assert boundary, "expected boundary cells"
        assert all(c.level == 15 for c in boundary)
        # Output cells are disjoint descendants of the input cell.
        for out_cell, _ in results:
            assert cell.contains(out_cell)
        spans = sorted(
            (c.range_min().id, c.range_max().id) for c, _ in results
        )
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi < lo
