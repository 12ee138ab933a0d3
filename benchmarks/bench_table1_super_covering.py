"""Table 1 kernels: individual covering computation and the super-covering
merge with precision-preserving conflict resolution."""

import pytest

from repro.cells.coverer import RegionCoverer
from repro.core.builder import DEFAULT_COVERING_OPTIONS, DEFAULT_INTERIOR_OPTIONS
from repro.core.precision import refine_to_precision
from repro.core.super_covering import build_super_covering


@pytest.mark.parametrize("dataset", ["boroughs", "neighborhoods"])
def test_individual_coverings(benchmark, workbench, dataset):
    polygons = workbench.polygons(dataset)
    coverer = RegionCoverer(DEFAULT_COVERING_OPTIONS)

    def build():
        return [coverer.covering(p) for p in polygons]

    coverings = benchmark(build)
    benchmark.extra_info["num_polygons"] = len(polygons)
    benchmark.extra_info["total_cells"] = sum(len(c) for c in coverings)


def test_interior_coverings(benchmark, workbench):
    polygons = workbench.polygons("neighborhoods")
    coverer = RegionCoverer(DEFAULT_INTERIOR_OPTIONS)
    result = benchmark(lambda: [coverer.interior_covering(p) for p in polygons])
    benchmark.extra_info["total_cells"] = sum(len(c) for c in result)


def test_super_covering_merge(benchmark, workbench):
    polygons = workbench.polygons("neighborhoods")
    coverer = RegionCoverer(DEFAULT_COVERING_OPTIONS)
    interior = RegionCoverer(DEFAULT_INTERIOR_OPTIONS)
    per_polygon = [
        (pid, coverer.covering(p), interior.interior_covering(p))
        for pid, p in enumerate(polygons)
    ]
    covering = benchmark(build_super_covering, per_polygon)
    benchmark.extra_info["num_cells"] = covering.num_cells


def test_precision_refinement_60m(benchmark, workbench):
    polygons = workbench.polygons("neighborhoods")
    base, _ = workbench.base_covering("neighborhoods")

    def refine():
        covering = base.copy()
        refine_to_precision(covering, polygons, 60.0)
        return covering

    covering = benchmark(refine)
    benchmark.extra_info["num_cells"] = covering.num_cells
