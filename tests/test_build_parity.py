"""The batched build kernels against their scalar oracles, cell for cell.

The coverer and the precision refinement classify whole rounds of cells
through one batched kernel (``repro.geo.relation``); ``tests/oracles.py``
keeps the one-cell-at-a-time implementations they replaced.  Three layers
of evidence that the two agree:

* property tests over star / holed / sliver polygons placed on the awkward
  parts of the sphere (antimeridian, pole, cube-face seam and corner),
* block boundaries: covering many polygons per call == one at a time,
* pinned sha256 digests of the benchmark builds' sorted entry arrays,
  generated at the last commit that built them with the scalar kernels —
  a one-ulp classification flip fails here, with a cell diff.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import CellId, CovererOptions, RegionCoverer
from repro.cells.coverer import batch_coverings, normalize_covering
from repro.core.builder import (
    DEFAULT_COVERING_OPTIONS,
    DEFAULT_INTERIOR_OPTIONS,
    cover_polygons,
)
from repro.core.precision import refine_to_precision
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering, build_super_covering
from repro.datasets import polygon_dataset
from repro.geo.polygon import Polygon, regular_polygon

import oracles

# ----------------------------------------------------------------------
# Polygon strategies
# ----------------------------------------------------------------------

#: (lng, lat) anchors: mid-latitude city, the antimeridian, the north
#: pole, the face 0 / face 1 seam on the equator, a cube corner.
ANCHORS = [
    (-73.97, 40.75),
    (179.9993, -16.5),
    (31.0, 89.9991),
    (45.0002, 9.3),
    (44.9996, 35.2641),
]


def _clamped(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Keep vertices on the lat/lng plane: they may touch ±180 / ±90."""
    return [
        (min(180.0, max(-180.0, lng)), min(90.0, max(-90.0, lat)))
        for lng, lat in points
    ]


def _ring(center, radii, phase: float) -> list[tuple[float, float]]:
    cx, cy = center
    angles = phase + np.linspace(0.0, 2.0 * np.pi, len(radii), endpoint=False)
    return _clamped(
        [
            (cx + r * math.cos(a), cy + r * math.sin(a))
            for r, a in zip(radii, angles.tolist())
        ]
    )


@st.composite
def polygons(draw, max_radius: float = 0.02) -> Polygon:
    center = draw(st.sampled_from(ANCHORS))
    radius = draw(st.floats(min_value=max_radius / 40, max_value=max_radius))
    phase = draw(st.floats(min_value=0.0, max_value=6.28))
    shape = draw(st.sampled_from(["star", "holed", "sliver"]))
    if shape == "sliver":
        # A long, very thin quadrilateral.
        thin = radius * draw(st.floats(min_value=1e-4, max_value=0.05))
        return Polygon(_ring(center, [radius, thin, radius, thin], phase))
    points = draw(st.integers(min_value=3, max_value=9))
    inner = draw(st.floats(min_value=0.2, max_value=0.9))
    outer = _ring(center, [radius, radius * inner] * points, phase)
    if shape == "star":
        return Polygon(outer)
    hole = _ring(center, [radius * inner * 0.5] * 5, phase + 0.3)
    return Polygon(outer, [hole])


coverer_options = st.builds(
    CovererOptions,
    max_cells=st.sampled_from([4, 8, 128, 256]),
    min_level=st.sampled_from([0, 6]),
    max_level=st.sampled_from([12, 20, 28]),
)


def _ids(cells: list[CellId]) -> list[int]:
    return [cell.id for cell in cells]


# ----------------------------------------------------------------------
# (a) coverings and interior coverings
# ----------------------------------------------------------------------


class TestCovererParity:
    @settings(max_examples=60, deadline=None)
    @given(polygons(), coverer_options)
    def test_covering_matches_heap_coverer(self, polygon, options):
        assert _ids(RegionCoverer(options).covering(polygon)) == _ids(
            oracles.heap_covering(polygon, options, interior=False)
        )

    @settings(max_examples=60, deadline=None)
    @given(polygons(), coverer_options)
    def test_interior_covering_matches_heap_coverer(self, polygon, options):
        assert _ids(RegionCoverer(options).interior_covering(polygon)) == _ids(
            oracles.heap_covering(polygon, options, interior=True)
        )

    @settings(max_examples=25, deadline=None)
    @given(polygons(), coverer_options, coverer_options)
    def test_runs_sharing_a_round_loop_do_not_interact(
        self, polygon, covering_options, interior_options
    ):
        """The covering and interior covering of one polygon share each
        round's classification; neither may see the other's budget."""
        covering, interior = cover_polygons(
            [polygon], covering_options, interior_options
        )[0]
        assert _ids(covering) == _ids(
            oracles.heap_covering(polygon, covering_options, interior=False)
        )
        assert _ids(interior) == _ids(
            oracles.heap_covering(polygon, interior_options, interior=True)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 12) - 1), max_size=40))
    def test_normalize_matches_reference(self, picks):
        """Random cell soups under one level-6 cell: nested, duplicated and
        complete sibling groups all occur."""
        root = CellId.from_degrees(40.7, -74.0).parent(6)
        cells = []
        for pick in picks:
            cell = root
            for depth in range(pick & 3):
                cell = cell.child((pick >> (2 + 2 * depth)) & 3)
            cells.append(cell)
        assert normalize_covering(cells) == oracles.normalize_covering(cells)


# ----------------------------------------------------------------------
# (b) precision refinement
# ----------------------------------------------------------------------


def _merged(polygon_list: list[Polygon]) -> SuperCovering:
    return build_super_covering(
        (pid, covering, interior)
        for pid, (covering, interior) in enumerate(cover_polygons(polygon_list))
    )


class TestPrecisionParity:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(polygons(max_radius=0.003), min_size=1, max_size=4),
        st.sampled_from([4.0, 60.0, 500.0]),
    )
    def test_refinement_matches_recursive_descent(self, polygon_list, precision):
        """Polygons that drew the same anchor overlap, so conflict resolution
        hands cells candidate refs of polygons they never touch (phantoms)
        and true + candidate mixes; at 500 m most covering cells are
        already finer than the target."""
        rounds = _merged(polygon_list)
        descent = rounds.copy()
        assert refine_to_precision(
            rounds, polygon_list, precision
        ) == oracles.refine_to_precision_descent(descent, polygon_list, precision)
        assert oracles.covering_dict(rounds) == oracles.covering_dict(descent)
        rounds.check_disjoint()

    @pytest.mark.parametrize("precision", [4.0, 60.0, 500.0])
    def test_phantom_and_inherited_true_refs(self, precision):
        """Hand-built roots: a phantom candidate next to a true hit (the
        whole cell must survive as a true-hit cell), a phantom alone (the
        cell must vanish), and a real boundary cell under a true hit."""
        square = regular_polygon((-74.0, 40.7), 0.01, 4)
        far = regular_polygon((-73.0, 41.5), 0.001, 8)
        polygon_list = [square, far]
        boundary = CellId.from_degrees(40.7, -73.99).parent(13)
        phantom_with_true = CellId.from_degrees(40.9, -74.4).parent(12)
        phantom_alone = CellId.from_degrees(40.2, -74.4).parent(16)
        rounds = oracles.covering_from_dict(
            {
                boundary.id: (PolygonRef(0, False), PolygonRef(1, True)),
                phantom_with_true.id: (PolygonRef(0, True), PolygonRef(1, False)),
                phantom_alone.id: (PolygonRef(1, False),),
            }
        )
        descent = rounds.copy()
        refine_to_precision(rounds, polygon_list, precision)
        oracles.refine_to_precision_descent(descent, polygon_list, precision)
        assert oracles.covering_dict(rounds) == oracles.covering_dict(descent)
        assert rounds.refs_for(phantom_with_true) == (PolygonRef(0, True),)
        assert phantom_alone not in rounds
        rounds.check_disjoint()

    def test_nothing_to_refine(self):
        covering = oracles.covering_from_dict(
            {CellId.from_degrees(40.7, -74.0).parent(10).id: (PolygonRef(0, True),)}
        )
        before = oracles.covering_dict(covering)
        refine_to_precision(covering, [regular_polygon((-74.0, 40.7), 1.0, 8)], 4.0)
        assert oracles.covering_dict(covering) == before


# ----------------------------------------------------------------------
# (c) block boundaries
# ----------------------------------------------------------------------


class TestBatching:
    SPECS = [
        (CovererOptions(max_cells=24, max_level=20), False),
        (CovererOptions(max_cells=40, max_level=16), True),
    ]

    @pytest.mark.parametrize("block", [1, 2, 32])
    def test_batch_equals_one_at_a_time(self, block, monkeypatch, overlap_grid_polygons):
        holed = Polygon(
            _ring((-74.0, 40.7), [0.02] * 12, 0.0), [_ring((-74.0, 40.7), [0.008] * 6, 0.0)]
        )
        polygon_list = [*overlap_grid_polygons[:4], holed]
        monkeypatch.setattr("repro.cells.coverer._BLOCK_POLYGONS", block)
        batched = batch_coverings(polygon_list, self.SPECS)
        assert len(batched) == len(polygon_list)
        for polygon, per_spec in zip(polygon_list, batched):
            for (options, interior), cells in zip(self.SPECS, per_spec):
                coverer = RegionCoverer(options)
                alone = (
                    coverer.interior_covering(polygon)
                    if interior
                    else coverer.covering(polygon)
                )
                assert _ids(cells) == _ids(alone)

    def test_empty_batch(self):
        assert batch_coverings([], self.SPECS) == []
        assert cover_polygons([]) == []


# ----------------------------------------------------------------------
# Pinned digests of the benchmark builds
# ----------------------------------------------------------------------


def _entries(covering: SuperCovering) -> list[tuple[int, int, bool]]:
    """Sorted ``(cell id, polygon id, interior)`` entries of a covering."""
    return [
        (cell.id, ref.polygon_id, ref.interior)
        for cell, refs in covering.items()
        for ref in refs
    ]


def _digest(entries: list[tuple[int, int, bool]]) -> str:
    digest = hashlib.sha256()
    for column, dtype in enumerate((np.uint64, np.int64, np.uint8)):
        digest.update(np.asarray([row[column] for row in entries], dtype=dtype).tobytes())
    return digest.hexdigest()


def _oracle_covering(polygon_list: list[Polygon]) -> SuperCovering:
    return build_super_covering(
        (
            pid,
            oracles.heap_covering(polygon, DEFAULT_COVERING_OPTIONS, interior=False),
            oracles.heap_covering(polygon, DEFAULT_INTERIOR_OPTIONS, interior=True),
        )
        for pid, polygon in enumerate(polygon_list)
    )


def _assert_pinned(covering, num_cells, pinned, oracle_build) -> None:
    """Match the pinned digest, or fail naming the cells that moved."""
    entries = _entries(covering)
    if _digest(entries) == pinned and covering.num_cells == num_cells:
        return
    expected = _entries(oracle_build())
    moved = sorted(set(entries) ^ set(expected))
    if moved:
        pytest.fail(
            f"{len(moved)} (cell, polygon, interior) entries differ from the scalar "
            f"build; first: {[(CellId(raw).to_token(), pid, flag) for raw, pid, flag in moved[:8]]}"
        )
    pytest.skip(
        "batched == scalar oracle, but neither reproduces the pinned digest: this "
        "platform's libm rounds cell bounds differently from the recording one"
    )


class TestPinnedDigests:
    """sha256 over the id-sorted entry arrays (uint64 cell ids, int64
    polygon ids, uint8 interior flags, each column's bytes in turn),
    recorded at commit f788255 — the last one building with the scalar
    coverer and the recursive precision descent."""

    def test_boroughs(self):
        polygon_list = polygon_dataset("boroughs")
        _assert_pinned(
            _merged(polygon_list),
            1_967,
            "2cd442dd49b0a7a77e2251f168a91725704857c86e69f1132d7c584e9d4690b9",
            lambda: _oracle_covering(polygon_list),
        )

    def test_neighborhoods_untrained_and_at_60m(self):
        """The trained hotspot build's pre-training covering, then the same
        covering refined to 60 m (the uniform serving build)."""
        polygon_list = polygon_dataset("neighborhoods")
        covering = _merged(polygon_list)
        _assert_pinned(
            covering,
            60_722,
            "839eeb6372269d33abfdd0a9fbd0e014f7f4a367d88cde49962961f66d590821",
            lambda: _oracle_covering(polygon_list),
        )
        refine_to_precision(covering, polygon_list, 60.0)

        def oracle_refined() -> SuperCovering:
            descent = _oracle_covering(polygon_list)
            oracles.refine_to_precision_descent(descent, polygon_list, 60.0)
            return descent

        _assert_pinned(
            covering,
            59_938,
            "dc472a76c27f3ba3fb5f5bdfd022c22db7a87e2030ad485c8742e47e162776d9",
            oracle_refined,
        )
