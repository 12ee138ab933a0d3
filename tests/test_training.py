"""Tests for index training with historical points (Section 3.3.1)."""

import numpy as np
import pytest

from oracles import (
    classify_split,
    covering_dict,
    split_expensive_cell,
    train_super_covering_sequential,
)
from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.core import PolygonIndex
from repro.core.act import AdaptiveCellTrie
from repro.core.joins import accurate_join
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering
from repro.core.training import (
    SthEvaluator,
    solely_true_hit_rate,
    train_super_covering,
)
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon


@pytest.fixture(scope="module")
def setup(overlap_grid_polygons=None):
    from repro.geo.polygon import regular_polygon

    polygons = [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]
    generator = np.random.default_rng(21)
    # Historical (training) and future (query) draws of the same process.
    train_lngs = generator.uniform(-74.03, -73.93, 30_000)
    train_lats = generator.uniform(40.67, 40.77, 30_000)
    query_lngs = generator.uniform(-74.03, -73.93, 30_000)
    query_lats = generator.uniform(40.67, 40.77, 30_000)
    train_ids = cell_ids_from_lat_lng_arrays(train_lats, train_lngs)
    query_ids = cell_ids_from_lat_lng_arrays(query_lats, query_lngs)
    brute = np.array(
        [contains_points(p, query_lngs, query_lats).sum() for p in polygons]
    )
    return polygons, train_ids, query_ids, query_lngs, query_lats, brute


def build_base(polygons) -> PolygonIndex:
    return PolygonIndex.build(polygons)


class TestTraining:
    def test_training_reduces_pip_tests(self, setup):
        polygons, train_ids, query_ids, qlngs, qlats, _ = setup
        index = build_base(polygons)
        before = accurate_join(index.store, query_ids, polygons, qlngs, qlats)
        report = train_super_covering(index.super_covering, polygons, train_ids)
        assert report.cells_split > 0
        trained = AdaptiveCellTrie(index.super_covering, 8)
        after = accurate_join(trained, query_ids, polygons, qlngs, qlats)
        assert after.num_pip_tests < before.num_pip_tests

    def test_training_preserves_exact_results(self, setup):
        polygons, train_ids, query_ids, qlngs, qlats, brute = setup
        index = build_base(polygons)
        train_super_covering(index.super_covering, polygons, train_ids)
        index.super_covering.check_disjoint()
        trained = AdaptiveCellTrie(index.super_covering, 8)
        result = accurate_join(trained, query_ids, polygons, qlngs, qlats)
        assert (result.counts == brute).all()

    def test_training_raises_sth(self, setup):
        polygons, train_ids, query_ids, _, _, _ = setup
        index = build_base(polygons)
        before = solely_true_hit_rate(index.super_covering, query_ids)
        train_super_covering(index.super_covering, polygons, train_ids)
        after = solely_true_hit_rate(index.super_covering, query_ids)
        assert after > before

    def test_budget_stops_training(self, setup):
        polygons, train_ids, _, _, _, _ = setup
        index = build_base(polygons)
        budget = index.num_cells + 50
        report = train_super_covering(
            index.super_covering, polygons, train_ids, max_cells=budget
        )
        assert report.budget_exhausted
        # The budget is enforced on the post-split count: it is a hard
        # memory bound, never exceeded by even one cell.
        assert index.num_cells <= budget

    def test_no_training_points_is_noop(self, setup):
        polygons, _, _, _, _, _ = setup
        index = build_base(polygons)
        cells_before = index.num_cells
        report = train_super_covering(
            index.super_covering, polygons, np.zeros(0, dtype=np.uint64)
        )
        assert report.points_processed == 0
        assert index.num_cells == cells_before

    def test_points_outside_polygons_do_nothing(self, setup):
        polygons, _, _, _, _, _ = setup
        index = build_base(polygons)
        cells_before = index.num_cells
        far = cell_ids_from_lat_lng_arrays(
            np.asarray([10.0, -45.0]), np.asarray([100.0, 3.0])
        )
        report = train_super_covering(index.super_covering, polygons, far)
        assert report.points_hit_expensive == 0
        assert index.num_cells == cells_before

    def test_repeated_hits_refine_deeper(self, setup):
        """Many training points in one hotspot push cells below one split."""
        polygons, _, _, _, _, _ = setup
        index = build_base(polygons)
        # Pick an actual expensive (candidate) cell and shower it with
        # training points spread across its area.
        expensive = [
            cell
            for cell, refs in index.super_covering.items()
            if any(not ref.interior for ref in refs) and cell.level < 25
        ]
        target = expensive[len(expensive) // 2]
        generator = np.random.default_rng(77)
        lo = target.range_min().id
        hi = target.range_max().id
        hotspot = (
            generator.integers(lo, hi + 1, size=200, dtype=np.uint64)
            | np.uint64(1)
        )
        report = train_super_covering(index.super_covering, polygons, hotspot)
        # Points keep landing in the (smaller) expensive children.
        assert report.cells_split > 1

    def test_via_builder_api(self, setup):
        polygons, train_ids, query_ids, qlngs, qlats, brute = setup
        qlats_arr = qlats
        index = PolygonIndex.build(polygons, training_cell_ids=train_ids)
        assert index.training_report is not None
        assert index.training_report.points_processed == len(train_ids)
        result = index.join(qlats_arr, qlngs, exact=True, cell_ids=query_ids)
        assert (result.counts == brute).all()

    def test_invalid_order_rejected(self, setup):
        polygons, train_ids, _, _, _, _ = setup
        index = build_base(polygons)
        with pytest.raises(ValueError, match="order"):
            train_super_covering(
                index.super_covering, polygons, train_ids, order="random"
            )


def _covering_snapshot(covering: SuperCovering) -> dict:
    return covering_dict(covering)


class TestVectorizedParity:
    """The vectorized pass must replay the per-point loop bit-identically."""

    def test_parity_unbudgeted(self, setup):
        polygons, train_ids, _, _, _, _ = setup
        vec = build_base(polygons)
        seq = build_base(polygons)
        vec_report = train_super_covering(vec.super_covering, polygons, train_ids)
        seq_report = train_super_covering_sequential(
            seq.super_covering, polygons, train_ids
        )
        assert vec_report == seq_report
        assert _covering_snapshot(vec.super_covering) == _covering_snapshot(
            seq.super_covering
        )
        vec.super_covering.check_disjoint()

    def test_parity_budgeted(self, setup):
        # With a budget the split order matters: the heap path must stop
        # at exactly the same split as the sequential loop.
        polygons, train_ids, _, _, _, _ = setup
        vec = build_base(polygons)
        seq = build_base(polygons)
        budget = vec.num_cells + 73
        vec_report = train_super_covering(
            vec.super_covering, polygons, train_ids, max_cells=budget
        )
        seq_report = train_super_covering_sequential(
            seq.super_covering, polygons, train_ids, max_cells=budget
        )
        assert vec_report == seq_report
        assert vec_report.budget_exhausted
        assert _covering_snapshot(vec.super_covering) == _covering_snapshot(
            seq.super_covering
        )

    def test_parity_on_clustered_stream(self, setup):
        # Hotspot streams hammer single cells: the heaviest descent load.
        polygons, _, _, _, _, _ = setup
        rng = np.random.default_rng(5)
        lngs = rng.normal(-73.98, 0.003, 4_000)
        lats = rng.normal(40.72, 0.003, 4_000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        vec = build_base(polygons)
        seq = build_base(polygons)
        vec_report = train_super_covering(vec.super_covering, polygons, ids)
        seq_report = train_super_covering_sequential(seq.super_covering, polygons, ids)
        assert vec_report == seq_report
        assert _covering_snapshot(vec.super_covering) == _covering_snapshot(
            seq.super_covering
        )

    def test_hot_order_matches_arrival_without_budget(self, setup):
        # Splits of disjoint cells commute: without a budget the schedule
        # cannot change the final covering.
        polygons, train_ids, _, _, _, _ = setup
        hot = build_base(polygons)
        arrival = build_base(polygons)
        train_super_covering(hot.super_covering, polygons, train_ids, order="hot")
        train_super_covering(arrival.super_covering, polygons, train_ids)
        assert _covering_snapshot(hot.super_covering) == _covering_snapshot(
            arrival.super_covering
        )

    def test_hot_order_budget_is_valid_and_bounded(self, setup):
        polygons, train_ids, _, _, _, _ = setup
        index = build_base(polygons)
        budget = index.num_cells + 40
        report = train_super_covering(
            index.super_covering, polygons, train_ids, max_cells=budget, order="hot"
        )
        assert report.budget_exhausted
        assert index.num_cells <= budget
        index.super_covering.check_disjoint()

    def test_exact_results_preserved_any_order(self, setup):
        polygons, train_ids, query_ids, qlngs, qlats, brute = setup
        for order in ("arrival", "hot"):
            index = build_base(polygons)
            train_super_covering(
                index.super_covering,
                polygons,
                train_ids,
                max_cells=index.num_cells + 500,
                order=order,
            )
            store = AdaptiveCellTrie(index.super_covering, 8)
            result = accurate_join(store, query_ids, polygons, qlngs, qlats)
            assert (result.counts == brute).all()


def _phantom_covering() -> tuple[SuperCovering, CellId, list]:
    """A covering holding one cell whose candidate ref is a phantom.

    The referenced polygon is entirely disjoint from the cell — the shape
    conflict resolution can produce when a coarse ancestor's reference is
    copied onto difference cells (see repro.core.precision).
    """
    polygon = regular_polygon((-74.0, 40.70), 0.002, 8)
    far_cell = CellId.from_degrees(40.70, -73.90).parent(12)
    covering = SuperCovering()
    covering.insert(far_cell, (PolygonRef(0, False),))
    return covering, far_cell, [polygon]


class TestPhantomSplitGuard:
    """Regression: splitting a phantom-candidate cell must not erase it."""

    def test_split_expensive_cell_keeps_phantom_cell(self):
        covering, cell, polygons = _phantom_covering()
        added = split_expensive_cell(
            covering, cell, covering.refs_for(cell), polygons
        )
        assert added == 0
        assert cell in covering  # before the fix the cell vanished
        assert covering.num_cells == 1

    def test_classify_split_reports_empty_for_phantom(self):
        covering, cell, polygons = _phantom_covering()
        assert classify_split(cell, covering.refs_for(cell), polygons) == []

    @pytest.mark.parametrize("driver", [
        train_super_covering, train_super_covering_sequential,
    ])
    def test_training_report_stays_non_negative(self, driver):
        covering, cell, polygons = _phantom_covering()
        inside = cell.range_min()
        report = driver(
            covering, polygons, np.asarray([inside.id], dtype=np.uint64)
        )
        # Before the fix: cells_added == -1 and the cell was deleted.
        assert report.cells_added == 0
        assert report.cells_split == 0
        assert report.points_hit_expensive == 0
        assert cell in covering


class TestBudgetBoundary:
    """Regression: the budget is enforced on the post-split count."""

    def _first_split_size(self, polygons, covering, train_id) -> tuple[CellId, int]:
        found = covering.find_containing(int(train_id))
        assert found is not None
        cell, refs = found
        return cell, len(classify_split(cell, refs, polygons))

    @pytest.mark.parametrize("driver", [
        train_super_covering, train_super_covering_sequential,
    ])
    def test_exact_boundary_budget(self, setup, driver):
        polygons, train_ids, _, _, _, _ = setup
        # Pick a training point whose first split is a genuine expansion.
        probe = build_base(polygons)
        chosen = None
        for raw in train_ids[:200]:
            found = probe.super_covering.find_containing(int(raw))
            if found is None:
                continue
            cell, refs = found
            if cell.level >= 30 or all(ref.interior for ref in refs):
                continue
            added = len(classify_split(cell, refs, polygons))
            if added > 1:
                chosen = (int(raw), added)
                break
        assert chosen is not None
        raw, added = chosen
        one_point = np.asarray([raw], dtype=np.uint64)

        # One below the post-split count: the split must NOT be applied,
        # and the overshooting split itself must report exhaustion.
        index = build_base(polygons)
        tight = index.num_cells - 1 + added - 1
        report = driver(
            index.super_covering, polygons, one_point, max_cells=tight
        )
        assert report.budget_exhausted
        assert report.cells_split == 0
        assert index.num_cells <= tight

        # Exactly the post-split count: the split fits, budget not blown.
        index = build_base(polygons)
        exact = index.num_cells - 1 + added
        report = driver(
            index.super_covering, polygons, one_point, max_cells=exact
        )
        assert not report.budget_exhausted
        assert report.cells_split == 1
        assert index.num_cells == exact


class TestSthEvaluator:
    """Satellite: vectorized STH flags, parity with the per-cell walk."""

    @staticmethod
    def _reference_sth(super_covering, query_cell_ids) -> float:
        """The pre-vectorization implementation (element-wise walks)."""
        if len(query_cell_ids) == 0:
            return 1.0
        raw_items = covering_dict(super_covering)
        ids = np.sort(np.asarray(list(raw_items), dtype=np.uint64))
        if len(ids) == 0:
            return 1.0
        expensive = np.asarray(
            [
                any(not ref.interior for ref in raw_items[int(raw)])
                for raw in ids
            ],
            dtype=bool,
        )
        lows = np.asarray(
            [CellId(int(raw)).range_min().id for raw in ids], dtype=np.uint64
        )
        highs = np.asarray(
            [CellId(int(raw)).range_max().id for raw in ids], dtype=np.uint64
        )
        queries = np.asarray(query_cell_ids, dtype=np.uint64)
        slot = np.searchsorted(lows, queries, side="right").astype(np.int64) - 1
        clamped = np.clip(slot, 0, len(ids) - 1)
        hit = (slot >= 0) & (queries <= highs[clamped])
        needs_refine = hit & expensive[clamped]
        return 1.0 - float(np.count_nonzero(needs_refine)) / len(queries)

    def test_parity_with_reference(self, setup):
        polygons, train_ids, query_ids, _, _, _ = setup
        index = build_base(polygons)
        assert solely_true_hit_rate(
            index.super_covering, query_ids
        ) == self._reference_sth(index.super_covering, query_ids)
        train_super_covering(index.super_covering, polygons, train_ids)
        assert solely_true_hit_rate(
            index.super_covering, query_ids
        ) == self._reference_sth(index.super_covering, query_ids)

    def test_evaluator_reusable_across_windows(self, setup):
        polygons, _, query_ids, _, _, _ = setup
        index = build_base(polygons)
        evaluator = SthEvaluator(index.super_covering)
        whole = evaluator.rate(query_ids)
        halves = [
            evaluator.rate(query_ids[: len(query_ids) // 2]),
            evaluator.rate(query_ids[len(query_ids) // 2 :]),
        ]
        assert min(halves) <= whole <= max(halves)
        assert evaluator.needs_refinement(query_ids).sum() == round(
            (1.0 - whole) * len(query_ids)
        )

    def test_empty_cases(self):
        covering = SuperCovering()
        assert solely_true_hit_rate(covering, np.zeros(0, dtype=np.uint64)) == 1.0
        assert SthEvaluator(covering).rate(
            np.asarray([CellId.from_degrees(40.7, -74.0).id], dtype=np.uint64)
        ) == 1.0
