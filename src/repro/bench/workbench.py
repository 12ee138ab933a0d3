"""Shared, cached build context for the experiment runners.

Building a 4 m-precision super covering over the census dataset takes
minutes; the paper's experiments reuse each index across many
measurements, and so do we.  The workbench memoizes polygon datasets,
point datasets (with precomputed cell ids), super coverings per precision,
and cell stores per (dataset, precision, store kind).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.baselines import BTreeStore, SortedVectorStore
from repro.bench.config import BenchConfig
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.act import AdaptiveCellTrie
from repro.core.builder import cover_polygons
from repro.core.precision import refine_to_precision
from repro.core.super_covering import SuperCovering, build_super_covering
from repro.datasets import (
    polygon_dataset,
    taxi_points,
    twitter_points,
    twitter_polygons,
    uniform_points_for,
)
from repro.geo.polygon import Polygon
from repro.util.timing import Timer

#: Store factories keyed by the paper's names.
STORE_FACTORIES: dict[str, Callable[[SuperCovering], object]] = {
    "ACT1": lambda sc: AdaptiveCellTrie(sc, 2),
    "ACT2": lambda sc: AdaptiveCellTrie(sc, 4),
    "ACT4": lambda sc: AdaptiveCellTrie(sc, 8),
    "GBT": BTreeStore,
    "LB": SortedVectorStore,
}

POLYGON_DATASET_NAMES = ("boroughs", "neighborhoods", "census")


class Workbench:
    """Memoized datasets/indexes shared across experiment runners."""

    def __init__(self, config: BenchConfig | None = None):
        self.config = config or BenchConfig()
        self._polygons: dict[str, list[Polygon]] = {}
        self._base_coverings: dict[str, tuple[SuperCovering, dict[str, float]]] = {}
        self._super_coverings: dict[tuple[str, float | None], tuple[SuperCovering, float]] = {}
        self._stores: dict[tuple[str, float | None, str], object] = {}
        self._points: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Polygon datasets
    # ------------------------------------------------------------------

    def polygons(self, name: str) -> list[Polygon]:
        if name not in self._polygons:
            if name == "census":
                self._polygons[name] = polygon_dataset(
                    "census", num_polygons=self.config.census_polygons
                )
            elif name.startswith("twitter:"):
                self._polygons[name] = twitter_polygons(name.split(":", 1)[1])
            else:
                self._polygons[name] = polygon_dataset(name)
        return self._polygons[name]

    # ------------------------------------------------------------------
    # Super coverings (base + precision-refined)
    # ------------------------------------------------------------------

    def base_covering(self, name: str) -> tuple[SuperCovering, dict[str, float]]:
        """Default-configuration super covering plus build timing metrics."""
        if name not in self._base_coverings:
            polygons = self.polygons(name)
            with Timer() as cover_timer:
                per_polygon = [
                    (pid, covering, interior)
                    for pid, (covering, interior) in enumerate(cover_polygons(polygons))
                ]
            with Timer() as merge_timer:
                covering = build_super_covering(per_polygon)
            timings = {
                "individual_coverings_seconds": cover_timer.seconds,
                "super_covering_seconds": merge_timer.seconds,
            }
            self._base_coverings[name] = (covering, timings)
        return self._base_coverings[name]

    def super_covering(
        self, name: str, precision: float | None
    ) -> tuple[SuperCovering, float]:
        """Precision-refined covering (None = the coarse default) and the
        refinement time in seconds."""
        key = (name, precision)
        if key not in self._super_coverings:
            base, _ = self.base_covering(name)
            if precision is None:
                self._super_coverings[key] = (base, 0.0)
            else:
                refined = base.copy()
                with Timer() as timer:
                    refine_to_precision(refined, self.polygons(name), precision)
                self._super_coverings[key] = (refined, timer.seconds)
        return self._super_coverings[key]

    # ------------------------------------------------------------------
    # Cell stores
    # ------------------------------------------------------------------

    def store(self, name: str, precision: float | None, kind: str):
        key = (name, precision, kind)
        if key not in self._stores:
            covering, _ = self.super_covering(name, precision)
            self._stores[key] = STORE_FACTORIES[kind](covering)
        return self._stores[key]

    # ------------------------------------------------------------------
    # Point datasets (lats, lngs, cell ids)
    # ------------------------------------------------------------------

    def taxi(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if "taxi" not in self._points:
            lats, lngs = taxi_points(self.config.taxi_points, seed=self.config.seed)
            self._points["taxi"] = (lats, lngs, cell_ids_from_lat_lng_arrays(lats, lngs))
        return self._points["taxi"]

    def uniform(self, dataset: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = f"uniform:{dataset}"
        if key not in self._points:
            lats, lngs = uniform_points_for(
                self.polygons(dataset), self.config.uniform_points, seed=self.config.seed
            )
            self._points[key] = (lats, lngs, cell_ids_from_lat_lng_arrays(lats, lngs))
        return self._points[key]

    def twitter(self, city: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = f"twitter:{city}"
        if key not in self._points:
            lats, lngs = twitter_points(
                city, self.config.twitter_nyc_points, seed=self.config.seed
            )
            self._points[key] = (lats, lngs, cell_ids_from_lat_lng_arrays(lats, lngs))
        return self._points[key]

