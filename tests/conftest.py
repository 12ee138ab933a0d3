"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.geo.polygon import Polygon, regular_polygon


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: takes minutes; deselect with -m 'not slow'"
    )
    # Opt-in runtime lock-order sanitizer: REPRO_SANITIZE=1 patches the
    # threading lock factories so every repro-created lock records its
    # acquisition ordering, and an inversion (or a non-reentrant
    # re-acquire) raises LockOrderError at the offending `acquire`.
    # Installed here rather than at module import so the patch lands
    # before test modules import repro.serve/* and create their locks.
    if os.environ.get("REPRO_SANITIZE") == "1":
        from repro.analysis.sanitizer import install

        install()


@pytest.fixture(scope="session")
def overlap_grid_polygons() -> list[Polygon]:
    """A 3x3 grid of 16-gons with sliver overlaps (exercises multi-ref cells)."""
    return [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]


@pytest.fixture(scope="session")
def disjoint_polygons() -> list[Polygon]:
    """Four well-separated polygons (no overlaps at all)."""
    return [
        regular_polygon((-74.00, 40.70), 0.004, 12),
        regular_polygon((-73.95, 40.70), 0.004, 8),
        regular_polygon((-74.00, 40.75), 0.004, 20),
        regular_polygon((-73.95, 40.75), 0.004, 5),
    ]


@pytest.fixture(scope="session")
def holed_polygon() -> Polygon:
    """A square with a square hole in the middle."""
    outer = [(-74.01, 40.70), (-73.99, 40.70), (-73.99, 40.72), (-74.01, 40.72)]
    hole = [(-74.006, 40.706), (-73.994, 40.706), (-73.994, 40.714), (-74.006, 40.714)]
    return Polygon(outer, [hole])


@pytest.fixture()
def covered(monkeypatch: pytest.MonkeyPatch) -> list[list[Polygon]]:
    """The polygons each ``batch_coverings`` call of ``core.builder``
    covered, call by call (``cover_polygons`` covers only what a polygon's
    memo does not already hold)."""
    from repro.core import builder

    calls: list[list[Polygon]] = []
    real = builder.batch_coverings

    def spy(polygons, specs):
        calls.append(list(polygons))
        return real(polygons, specs)

    monkeypatch.setattr(builder, "batch_coverings", spy)
    return calls


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def nyc_query_points() -> tuple[np.ndarray, np.ndarray]:
    """(lngs, lats) covering the test polygons plus margins."""
    generator = np.random.default_rng(99)
    lngs = generator.uniform(-74.05, -73.90, 30_000)
    lats = generator.uniform(40.66, 40.79, 30_000)
    return lngs, lats
