"""Named workload configurations mirroring the paper's evaluation setup.

The paper's datasets, at our reproduction scale (``results/paper/`` holds
the checked-in evaluation at both bench presets):

=================  ==========  =============  ======================
dataset            # polygons  avg. vertices  paper original
=================  ==========  =============  ======================
boroughs           5           662            NYC boroughs
neighborhoods      289         30             NYC neighborhoods
census             2,000       13             39,184 census blocks
=================  ==========  =============  ======================

All three cover the same city rectangle, like the originals.  The census
dataset is scaled down ~20x by default (Python build times), keeping the
many-small-polygons character; pass ``scale`` to grow it.

Point datasets: "taxi" points are hotspot-clustered in the city rectangle
(the paper's 1.23 B pick-ups are sampled down via the ``num_points``
argument of :func:`taxi_points`); Twitter city datasets reproduce the four
cities' polygon counts and relative point-set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.points import clustered_points, uniform_points
from repro.datasets.polygons import densify_polygons, voronoi_partition
from repro.geo.polygon import Polygon
from repro.geo.rect import Rect

#: One shared city rectangle (an NYC-analog, ~6.6 km x 6.6 km).  City-scale
#: geometry keeps super-covering sizes laptop-friendly at 4 m precision
#: while preserving every structural relationship of the evaluation.
NYC_BOX = Rect(-74.03, -73.97, 40.72, 40.78)

#: Twitter-experiment city rectangles (same size, different locations) and
#: their neighborhood polygon counts from the paper (Figure 9).
CITY_BOXES: dict[str, Rect] = {
    "NYC": NYC_BOX,
    "BOS": Rect(-71.09, -71.03, 42.33, 42.39),
    "LA": Rect(-118.29, -118.23, 34.02, 34.08),
    "SF": Rect(-122.45, -122.39, 37.74, 37.80),
}

#: Paper's Twitter datasets: (polygon count, points relative to NYC's).
TWITTER_CITIES: dict[str, tuple[int, float]] = {
    "NYC": (289, 1.0),
    "BOS": (42, 13.6 / 83.1),
    "LA": (160, 60.6 / 83.1),
    "SF": (117, 9.57 / 83.1),
}


@dataclass(frozen=True)
class PolygonDatasetSpec:
    """Recipe for one synthetic polygon dataset."""

    name: str
    num_polygons: int
    avg_vertices: float
    roughness: float
    seed: int


POLYGON_DATASETS: dict[str, PolygonDatasetSpec] = {
    "boroughs": PolygonDatasetSpec("boroughs", 5, 662, 0.12, seed=11),
    "neighborhoods": PolygonDatasetSpec("neighborhoods", 289, 30, 0.10, seed=13),
    "census": PolygonDatasetSpec("census", 2000, 13, 0.08, seed=17),
}


def polygon_dataset(
    name: str,
    bounds: Rect = NYC_BOX,
    scale: float = 1.0,
    num_polygons: int | None = None,
) -> list[Polygon]:
    """Generate one of the named polygon datasets over ``bounds``.

    ``scale`` multiplies the polygon count (for quick runs or full-size
    reproductions); ``num_polygons`` overrides it outright.
    """
    spec = POLYGON_DATASETS[name]
    count = num_polygons if num_polygons is not None else max(1, round(spec.num_polygons * scale))
    cells = voronoi_partition(bounds, count, seed=spec.seed)
    return densify_polygons(cells, spec.avg_vertices, spec.roughness, seed=spec.seed + 1)


def taxi_points(
    num_points: int,
    bounds: Rect = NYC_BOX,
    seed: int = 42,
) -> tuple[np.ndarray, np.ndarray]:
    """NYC-taxi-analog points: heavily hotspot-clustered; ``(lats, lngs)``."""
    return clustered_points(
        bounds,
        num_points,
        seed=seed,
        num_hotspots=4,
        hotspot_fraction=0.92,
        spread_fraction=0.035,
    )


def twitter_points(
    city: str,
    nyc_num_points: int,
    seed: int = 77,
) -> tuple[np.ndarray, np.ndarray]:
    """Twitter-analog points for a city, scaled relative to NYC's count."""
    polygons_count, relative = TWITTER_CITIES[city]
    del polygons_count  # documented in TWITTER_CITIES; not needed here
    bounds = CITY_BOXES[city]
    num_points = max(1, round(nyc_num_points * relative))
    return clustered_points(
        bounds,
        num_points,
        seed=seed + _city_seed(city),
        num_hotspots=5,
        hotspot_fraction=0.85,
        spread_fraction=0.05,
    )


def _city_seed(city: str) -> int:
    """Deterministic per-city seed offset (str hash() is randomized)."""
    return sum(ord(ch) * (k + 1) for k, ch in enumerate(city)) % 1000


def twitter_polygons(city: str, scale: float = 1.0) -> list[Polygon]:
    """Neighborhood polygons for a Twitter-experiment city."""
    count, _ = TWITTER_CITIES[city]
    count = max(1, round(count * scale))
    spec = POLYGON_DATASETS["neighborhoods"]
    cells = voronoi_partition(CITY_BOXES[city], count, seed=spec.seed + _city_seed(city))
    return densify_polygons(cells, spec.avg_vertices, spec.roughness, seed=spec.seed + 2)


def uniform_points_for(
    polygons: list[Polygon], num_points: int, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's synthetic baseline: uniform in the dataset MBR."""
    bounds = Rect.empty()
    for polygon in polygons:
        bounds = bounds.union(polygon.mbr)
    return uniform_points(bounds, num_points, seed=seed)


@dataclass(frozen=True)
class ChurnOp:
    """One online polygon mutation in a churn stream."""

    kind: str  # "insert" | "delete"
    polygon: Polygon | None  # payload for inserts
    polygon_id: int  # target for deletes (the id the index will know)


@dataclass(frozen=True)
class ChurnWorkload:
    """A polygon-churn scenario: initial set, mutation stream, probe points.

    Ids follow the dynamic-index convention: the initial polygons get ids
    ``0..len(initial)-1`` and every insert gets the next id in arrival
    order, so ``ChurnOp.polygon_id`` matches what
    ``DynamicPolygonIndex.insert`` will assign when ops are applied in
    order.
    """

    initial: tuple[Polygon, ...]
    ops: tuple[ChurnOp, ...]
    probe_lats: np.ndarray
    probe_lngs: np.ndarray

    @property
    def num_inserts(self) -> int:
        return sum(1 for op in self.ops if op.kind == "insert")

    @property
    def num_deletes(self) -> int:
        return sum(1 for op in self.ops if op.kind == "delete")


def polygon_churn_workload(
    num_initial: int = 200,
    num_ops: int = 200,
    num_probe_points: int = 100_000,
    insert_fraction: float = 0.5,
    bounds: Rect = NYC_BOX,
    avg_vertices: float = 30,
    roughness: float = 0.10,
    seed: int = 1234,
) -> ChurnWorkload:
    """Generate an online geofence-churn scenario.

    A Voronoi partition of ``bounds`` supplies ``num_initial`` starting
    polygons plus a reserve pool the insert stream draws from; each op is
    an insert with probability ``insert_fraction``, else a delete of a
    uniformly random live polygon (never deleting the last one).  Probe
    points are hotspot-clustered like the taxi stream.  Fully
    deterministic in ``seed``.
    """
    if num_initial < 1:
        raise ValueError("num_initial must be >= 1")
    rng = np.random.default_rng(seed)
    max_inserts = num_ops  # worst case: every op is an insert
    cells = voronoi_partition(bounds, num_initial + max_inserts, seed=seed)
    polygons = densify_polygons(cells, avg_vertices, roughness, seed=seed + 1)
    initial = tuple(polygons[:num_initial])
    reserve = list(polygons[num_initial:])

    live: list[int] = list(range(num_initial))
    next_id = num_initial
    ops: list[ChurnOp] = []
    for _ in range(num_ops):
        insert = rng.random() < insert_fraction or len(live) <= 1
        if insert and reserve:
            ops.append(ChurnOp("insert", reserve.pop(0), next_id))
            live.append(next_id)
            next_id += 1
        else:
            victim = live.pop(int(rng.integers(len(live))))
            ops.append(ChurnOp("delete", None, victim))

    probe_lats, probe_lngs = clustered_points(
        bounds,
        num_probe_points,
        seed=seed + 2,
        num_hotspots=4,
        hotspot_fraction=0.92,
        spread_fraction=0.035,
    )
    return ChurnWorkload(
        initial=initial,
        ops=tuple(ops),
        probe_lats=probe_lats,
        probe_lngs=probe_lngs,
    )


@dataclass(frozen=True)
class DriftPhase:
    """One stationary episode of a drifting request stream.

    ``train`` points are the phase's *history* (what an offline training
    pass would have seen); ``query`` points are the live request stream of
    the same hotspot process.  Both are drawn from one generator run, so
    they share hotspot centers but not samples.
    """

    name: str
    train_lats: np.ndarray
    train_lngs: np.ndarray
    query_lats: np.ndarray
    query_lngs: np.ndarray


@dataclass(frozen=True)
class DriftingHotspotWorkload:
    """A request stream whose hotspots move between phases.

    The scenario behind workload-adaptive retraining: an index trained on
    phase ``k``'s history serves phase ``k``'s queries with a high
    solely-true-hit rate, then the hotspots move (phase ``k+1``) and the
    trained refinement is in the wrong place until the index re-adapts.
    """

    phases: tuple[DriftPhase, ...]


def drifting_hotspot_workload(
    num_phases: int = 2,
    train_points: int = 100_000,
    query_points: int = 200_000,
    bounds: Rect = NYC_BOX,
    num_hotspots: int = 3,
    hotspot_fraction: float = 0.95,
    spread_fraction: float = 0.03,
    seed: int = 4242,
) -> DriftingHotspotWorkload:
    """Generate a drifting-hotspot scenario (deterministic in ``seed``).

    Each phase draws fresh hotspot centers (a different per-phase seed),
    so the hotspot mass moves to new locations between phases while the
    uniform background stays.  Within a phase, history and live stream
    come from one generator run over ``train_points + query_points``
    points — same centers, disjoint samples.
    """
    if num_phases < 1:
        raise ValueError("num_phases must be >= 1")
    phases = []
    for phase in range(num_phases):
        lats, lngs = clustered_points(
            bounds,
            train_points + query_points,
            seed=seed + 1009 * phase,
            num_hotspots=num_hotspots,
            hotspot_fraction=hotspot_fraction,
            spread_fraction=spread_fraction,
        )
        phases.append(
            DriftPhase(
                name=f"phase-{phase}",
                train_lats=lats[:train_points],
                train_lngs=lngs[:train_points],
                query_lats=lats[train_points:],
                query_lngs=lngs[train_points:],
            )
        )
    return DriftingHotspotWorkload(phases=tuple(phases))


def shard_probe_points(
    num_points: int,
    bounds: Rect = NYC_BOX,
    num_hotspots: int = 16,
    seed: int = 2026,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe-heavy skewed stream for the sharding benchmark.

    Like the taxi stream, most traffic concentrates in hotspots — but
    across *many* of them (16 by default, vs. the taxi stream's 4), so a
    Hilbert-range partition of the city sees skew WITHIN every shard
    without the whole stream collapsing onto one shard.  That is the
    regime share-nothing sharding targets: every worker busy, each on
    its own hot cells.
    """
    return clustered_points(
        bounds,
        num_points,
        seed=seed,
        num_hotspots=num_hotspots,
        hotspot_fraction=0.90,
        spread_fraction=0.04,
    )


def venue_points(
    num_requests: int,
    bounds: Rect = NYC_BOX,
    num_venues: int = 2000,
    zipf_exponent: float = 1.1,
    seed: int = 99,
) -> tuple[np.ndarray, np.ndarray]:
    """Online check-in stream: repeated lookups of a finite venue set.

    The Twitter/Foursquare-style traffic a serving deployment sees is not
    a fresh continuous coordinate per request — users check in at a fixed
    set of venues whose popularity is Zipf-distributed.  Venue locations
    follow the hotspot-clustered city shape; request ``k`` samples a venue
    with probability proportional to ``1 / rank**zipf_exponent``.  This is
    the workload where hot-cell caching shines, because the head venues
    dominate the request stream.
    """
    if num_venues < 1:
        raise ValueError("num_venues must be >= 1")
    venue_lats, venue_lngs = clustered_points(
        bounds,
        num_venues,
        seed=seed,
        num_hotspots=5,
        hotspot_fraction=0.85,
        spread_fraction=0.05,
    )
    rng = np.random.default_rng(seed + 1)
    popularity = 1.0 / np.arange(1, num_venues + 1, dtype=np.float64) ** zipf_exponent
    popularity /= popularity.sum()
    chosen = rng.choice(num_venues, size=num_requests, p=popularity)
    return venue_lats[chosen], venue_lngs[chosen]
