"""Tests for sharded multi-process serving (repro.serve.sharded)."""

import dataclasses
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolygonIndex
from repro.cells.cellid import CellId
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays, range_bounds_from_cell_ids
from repro.core import AdaptationPolicy
from repro.core.morsels import OFFLINE_MORSEL_POINTS
from repro.geo.polygon import regular_polygon
from repro.serve import ShardPlan, ShardWorkerError, ShardedJoinService
from repro.serve.sharded import _await_lanes, _cut_weights, in_leaf_range

#: Every JoinResult field two equivalent joins must agree on exactly.
STAT_FIELDS = (
    "num_points",
    "num_pairs",
    "num_true_hit_pairs",
    "num_candidate_pairs",
    "num_pip_tests",
    "solely_true_hits",
)


def _grid_polygons(origin_lng=-74.0, origin_lat=40.70):
    return [
        regular_polygon((origin_lng + gx * 0.02, origin_lat + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]


@pytest.fixture(scope="module")
def index():
    return PolygonIndex.build(_grid_polygons(), precision_meters=30.0)


@pytest.fixture(scope="module")
def swap_index(index):
    # Built after ``index`` so its version is strictly greater — a valid
    # swap target with a different (coarser) polygon set.
    polygons = [
        regular_polygon((-74.0 + gx * 0.04, 40.70 + gy * 0.04), 0.02, 12)
        for gx in range(2)
        for gy in range(2)
    ]
    return PolygonIndex.build(polygons, precision_meters=60.0)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(31)
    lngs = rng.uniform(-74.04, -73.92, 6_000)
    lats = rng.uniform(40.66, 40.78, 6_000)
    return lats, lngs


def assert_identical(served, direct):
    assert np.array_equal(served.counts, direct.counts)
    for field in STAT_FIELDS:
        assert getattr(served, field) == getattr(direct, field), field


def _pair_set(result) -> set[tuple[int, int]]:
    return set(zip(result.pair_points.tolist(), result.pair_polygons.tolist()))


def _shm_names() -> set[str]:
    base = pathlib.Path("/dev/shm")
    if not base.is_dir():  # pragma: no cover - non-POSIX
        pytest.skip("no /dev/shm to enumerate")
    return {p.name for p in base.iterdir()}


def _pairs_in_scatter_order(index, plan, lats, lngs, exact):
    """The pair arrays of a sharded join, built from direct joins: per
    ring slice, per shard, that shard's points in batch order (what a
    stable sort of the slice by shard groups together)."""
    shard_of = plan.shard_for(index.cell_ids_for(lats, lngs))
    points, polygons = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, len(lats), OFFLINE_MORSEL_POINTS):
        window = np.arange(lo, min(lo + OFFLINE_MORSEL_POINTS, len(lats)))
        for shard in range(plan.num_shards):
            mine = window[shard_of[window] == shard]
            part = index.join(
                lats[mine], lngs[mine], exact=exact, materialize=True
            )
            points.append(mine[part.pair_points])
            polygons.append(part.pair_polygons)
    return np.concatenate(points), np.concatenate(polygons)


def _row_cuts(plan, index) -> np.ndarray:
    """Shard ``s``'s covering rows are ``[cuts[s], cuts[s + 1])``: where
    the plan's cut points fall among the cells' ``range_min`` values."""
    lo, _ = range_bounds_from_cell_ids(index.super_covering.cell_ids)
    return np.concatenate(([0], np.searchsorted(lo, plan.boundaries), [len(lo)]))


def _shard_cells(plan, index) -> list[dict]:
    """Each shard's covering cells as ``{cell id: refs}``, read off the
    rows its cut points bound."""
    cuts = _row_cuts(plan, index)
    items = [(cell.id, refs) for cell, refs in index.super_covering.items()]
    return [
        dict(items[cuts[shard] : cuts[shard + 1]]) for shard in range(plan.num_shards)
    ]


def _referenced(shard_cells: dict) -> set[int]:
    """The polygon ids a shard's cells reference."""
    return {ref.polygon_id for refs in shard_cells.values() for ref in refs}


def _cut_weight_per_shard(plan, index) -> np.ndarray:
    """The cut weight each shard's row range carries."""
    weights = np.concatenate(([0], np.cumsum(_cut_weights(index.super_covering))))
    return np.diff(weights[_row_cuts(plan, index)])


class TestShardPlan:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    def test_partition_is_exact(self, index, num_shards):
        plan = ShardPlan.from_index(index, num_shards)
        raw = {cell.id: refs for cell, refs in index.super_covering.items()}
        assert plan.num_shards == num_shards
        assert len(plan.boundaries) == num_shards - 1
        assert list(plan.boundaries) == sorted(plan.boundaries)
        cells = _shard_cells(plan, index)
        # Every covering cell lands in exactly one shard, refs untouched.
        scattered = {}
        for shard_cells in cells:
            for cell_id, refs in shard_cells.items():
                assert cell_id not in scattered
                scattered[cell_id] = refs
        assert scattered == raw
        # A shard's row range holds exactly the cells whose leaf range
        # the cuts assign to it (what the per-shard dicts used to hold).
        per_shard = [{} for _ in range(num_shards)]
        for cell_id, refs in raw.items():
            low = np.asarray([CellId(cell_id).range_min().id], dtype=np.uint64)
            per_shard[int(plan.shard_for(low)[0])][cell_id] = refs
        assert cells == per_shard

    def test_cells_and_points_agree_on_ownership(self, index):
        plan = ShardPlan.from_index(index, 4)
        for shard, shard_cells in enumerate(_shard_cells(plan, index)):
            for cell_id in shard_cells:
                cell = CellId(cell_id)
                ends = np.asarray(
                    [cell.range_min().id, cell.range_max().id], dtype=np.uint64
                )
                assert plan.shard_for(ends).tolist() == [shard, shard]

    @settings(max_examples=200, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=4),
        ids=st.lists(st.integers(0, 2**64 - 1), max_size=40),
        on_cut=st.lists(st.integers(0, 3), max_size=8),
        duplicate=st.booleans(),
    )
    def test_range_predicate_partitions_like_shard_for(
        self, index, cuts, ids, on_cut, duplicate
    ):
        """The lanes' selection IS ``shard_for``: for any sorted cuts —
        duplicates (empty shards), ids sitting exactly on a cut, 1-5
        shards — every id lands in exactly the shard ``shard_for`` names."""
        if duplicate and cuts:
            cuts = cuts + cuts[:1]
        cuts = sorted(cuts)
        ids = ids + [cuts[k % len(cuts)] for k in on_cut if cuts]
        plan = dataclasses.replace(
            ShardPlan.from_index(index, 1),
            num_shards=len(cuts) + 1,
            boundaries=np.asarray(cuts, dtype=np.uint64),
        )
        leaf_ids = np.asarray(ids, dtype=np.uint64)
        shard_of = plan.shard_for(leaf_ids)
        ranges = plan.leaf_ranges()
        assert len(ranges) == plan.num_shards
        for shard, (lower, upper) in enumerate(ranges):
            assert np.array_equal(
                in_leaf_range(leaf_ids, lower, upper), shard_of == shard
            )

    def test_balanced_on_covering_cell_counts(self, index):
        plan = ShardPlan.from_index(index, 4)
        ref_offsets = index.super_covering.ref_offsets
        weights = np.diff(ref_offsets[_row_cuts(plan, index)])
        assert sum(weights) == len(index.super_covering.packed_refs)
        assert max(weights) <= 2 * (sum(weights) / len(weights))

    def test_straddling_polygons_are_replicated(self, index):
        # The grid polygons' coverings cross shard cuts, so the shards'
        # referenced sets overlap: total references exceed the polygon count.
        referenced = [
            _referenced(cells)
            for cells in _shard_cells(ShardPlan.from_index(index, 3), index)
        ]
        assert sum(map(len, referenced)) > len(index.polygons)
        assert set().union(*referenced) == set(range(len(index.polygons)))

    def test_single_shard_owns_everything(self, index):
        plan = ShardPlan.from_index(index, 1)
        assert plan.boundaries.size == 0
        assert _row_cuts(plan, index).tolist() == [0, index.super_covering.num_cells]
        (cells,) = _shard_cells(plan, index)
        assert _referenced(cells) == set(range(len(index.polygons)))

    def test_invalid_shard_count(self, index):
        with pytest.raises(ValueError):
            ShardPlan.from_index(index, 0)

    def test_invalid_balance_mode(self, index):
        # Cuts always balance on the one cut weight; the selector is gone.
        for mode in ("owned", "entries"):
            with pytest.raises(TypeError, match="balance"):
                ShardPlan.from_index(index, 2, balance=mode)
        assert not hasattr(ShardPlan.from_index(index, 2), "balance")

    def test_a_plan_is_its_cut_points(self, index):
        """Two fields: the shard count and the cuts as leaf ids, each the
        ``range_min`` of the covering cell it starts."""
        assert [f.name for f in dataclasses.fields(ShardPlan)] == [
            "num_shards", "boundaries",
        ]
        plan = ShardPlan.from_index(index, 3)
        assert plan.boundaries.dtype == np.uint64
        lows = index.super_covering.cell_ids[_row_cuts(plan, index)[1:-1]]
        ranges = [CellId(int(cell)).range_min().id for cell in lows]
        assert plan.boundaries.tolist() == ranges

    # Recorded at 1.20.0: the cuts move only when the cut weight does.
    PINNED_BOUNDARIES = {
        2: [9926595049917775873],
        3: [9926594883269689345, 9926595088379543553],
        4: [9926594883269689345, 9926595049917775873, 9926595697100980225],
    }

    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_cuts_are_pinned(self, index, num_shards):
        plan = ShardPlan.from_index(index, num_shards)
        assert plan.boundaries.tolist() == self.PINNED_BOUNDARIES[num_shards]

    def test_cut_weight_cuts_balance_a_boundary_heavy_chain(self):
        """The cut weight keeps a boundary-heavy covering balanced.

        A chain of heavily overlapping polygons is boundary-heavy —
        nearly every covering straddles any cut.  Weighting cuts by raw
        entry counts would let the same straddler weigh into several
        shards' shares; the median-anchored weight counts each polygon
        once, so the max/min per-shard cut weight stays bounded.
        """
        chain = [
            regular_polygon((-74.0 + 0.004 * i, 40.70), 0.012, 8)
            for i in range(24)
        ]
        chain_index = PolygonIndex.build(chain, precision_meters=30.0)
        for num_shards in (3, 4):
            plan = ShardPlan.from_index(chain_index, num_shards)
            work = _cut_weight_per_shard(plan, chain_index)
            assert work.min() > 0 and work.max() / work.min() <= 2.0

    def test_cut_weight_is_balanced(self, index):
        plan = ShardPlan.from_index(index, 4)
        work = _cut_weight_per_shard(plan, index)
        # Every entry weighs once, on its polygon's anchor row.
        assert work.sum() == len(index.super_covering.packed_refs)
        assert work.min() > 0 and work.max() / work.min() <= 2.0

    def test_more_shards_than_weight_mass_leaves_empty_shards(self):
        """Degenerate plan: duplicate cut points collapse to empty shards.

        One polygon's cut weight all lands on a single anchor cell, so
        with 6 shards most quantile cuts coincide — the collapsed shards
        must stay empty (no cells) without perturbing the exact partition
        or shard-id stability.
        """
        solo = PolygonIndex.build(
            [regular_polygon((-74.0, 40.70), 0.011, 16)],
            precision_meters=30.0,
        )
        plan = ShardPlan.from_index(solo, 6)
        assert plan.num_shards == 6
        cuts = _row_cuts(plan, solo)
        cells = _shard_cells(plan, solo)
        empty = [s for s in range(6) if cuts[s] == cuts[s + 1]]
        assert empty  # the degenerate case actually occurred
        for shard in range(6):
            assert _referenced(cells[shard]) == (set() if shard in empty else {0})

    def test_degenerate_plan_still_serves_identically(self, points):
        lats, lngs = points
        solo = PolygonIndex.build(
            [regular_polygon((-74.0, 40.70), 0.011, 16)],
            precision_meters=30.0,
        )
        direct = solo.join(lats, lngs, exact=True)
        with ShardedJoinService(solo, num_shards=6, backend="inline") as svc:
            assert_identical(svc.join(lats, lngs, exact=True), direct)

    @pytest.mark.parametrize("num_shards", [2, 3])
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_empty_layer_joins_promptly(self, index, points, backend, num_shards):
        """A layer without cells still cuts ``num_shards - 1`` times (all
        at 0), so every lane gets every join: the zero result, at once —
        at construction and after a swap to an empty layer."""
        lats, lngs = points
        empty = PolygonIndex.build([])
        with ShardedJoinService(
            {"default": index, "empty": empty},
            num_shards=num_shards,
            backend=backend,
        ) as svc:
            assert svc.plan("empty").boundaries.tolist() == [0] * (num_shards - 1)
            svc.swap_layer("default", PolygonIndex.build([]))
            for layer in ("empty", "default"):
                started = time.perf_counter()
                served = svc.join(lats, lngs, layer=layer, exact=True)
                assert time.perf_counter() - started < 1.0
                assert_identical(served, empty.join(lats, lngs, exact=True))
                assert served.num_points == len(lats) and served.num_pairs == 0

    def test_polygon_straddling_every_cut(self, points):
        """A straddler is referenced by every populated shard it touches."""
        lats, lngs = points
        polygons = _grid_polygons() + [
            regular_polygon((-73.98, 40.72), 0.05, 24)
        ]
        big = len(polygons) - 1
        straddle_index = PolygonIndex.build(polygons, precision_meters=30.0)
        plan = ShardPlan.from_index(straddle_index, 4)
        # The big polygon's cut-weight spike can collapse a quantile cut
        # into an empty shard; it must straddle every *populated* shard.
        cuts = _row_cuts(plan, straddle_index)
        populated = [s for s in range(4) if cuts[s] < cuts[s + 1]]
        cells = _shard_cells(plan, straddle_index)
        holding = [s for s in range(4) if big in _referenced(cells[s])]
        assert holding == populated
        assert len(holding) >= 3  # genuinely straddles multiple cuts
        direct = straddle_index.join(lats, lngs, exact=True)
        with ShardedJoinService(
            straddle_index, num_shards=4, backend="inline"
        ) as svc:
            assert_identical(svc.join(lats, lngs, exact=True), direct)


class TestInlineSharded:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("exact", [False, True])
    def test_join_bit_identical_to_direct(self, index, points, num_shards, exact):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=exact)
        with ShardedJoinService(
            index, num_shards=num_shards, backend="inline"
        ) as svc:
            served = svc.join(lats, lngs, exact=exact)
        assert_identical(served, direct)

    def test_materialized_pairs_match_direct(self, index, points):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=True, materialize=True)
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            served = svc.join(lats, lngs, exact=True, materialize=True)
        assert _pair_set(served) == _pair_set(direct)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("materialize", [False, True])
    def test_ring_reuse_and_slices_keep_results_and_pair_order(
        self, index, exact, materialize
    ):
        """One ring serves every dispatch: a large batch after a small
        one after a large one (stale slots beyond ``total`` must never
        be selected), then one batch of two ring slices."""
        rng = np.random.default_rng(5)
        sizes = [6_000, 40, 6_000, OFFLINE_MORSEL_POINTS + 7]
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            plan = svc.plan()
            for size in sizes:
                lngs = rng.uniform(-74.04, -73.92, size)
                lats = rng.uniform(40.66, 40.78, size)
                served = svc.join(
                    lats, lngs, exact=exact, materialize=materialize
                )
                assert_identical(served, index.join(lats, lngs, exact=exact))
                if not materialize:
                    assert served.pair_points is None
                    continue
                pair_points, pair_polygons = _pairs_in_scatter_order(
                    index, plan, lats, lngs, exact
                )
                assert np.array_equal(served.pair_points, pair_points)
                assert np.array_equal(served.pair_polygons, pair_polygons)

    def test_join_layers_identical_per_layer(self, index, swap_index, points):
        lats, lngs = points
        with ShardedJoinService(
            {"fine": index, "coarse": swap_index},
            num_shards=3,
            backend="inline",
            default_layer="fine",
        ) as svc:
            results = svc.join_layers(lats, lngs, exact=True)
            assert set(results) == {"fine", "coarse"}
            assert_identical(results["fine"], index.join(lats, lngs, exact=True))
            assert_identical(
                results["coarse"], swap_index.join(lats, lngs, exact=True)
            )
            only = svc.join_layers(lats[:500], lngs[:500], layers=["coarse"])
            assert list(only) == ["coarse"]

    def test_empty_batch(self, index):
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            result = svc.join(np.zeros(0), np.zeros(0), exact=True)
        assert result.num_points == 0
        assert result.num_pairs == 0
        assert len(result.counts) == len(index.polygons)

    def test_swap_layer_stays_identical(self, index, swap_index, points):
        lats, lngs = points
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            before = svc.join(lats, lngs, exact=True)
            assert_identical(before, index.join(lats, lngs, exact=True))
            previous = svc.swap_layer("default", swap_index)
            assert previous is index
            after = svc.join(lats, lngs, exact=True)
            assert_identical(after, swap_index.join(lats, lngs, exact=True))
            assert svc.stats().layers["default"].version == swap_index.version

    def test_swap_to_stale_version_refused(self, index, swap_index):
        with ShardedJoinService(
            swap_index, num_shards=2, backend="inline"
        ) as svc:
            with pytest.raises(ValueError, match="refusing to swap"):
                svc.swap_layer("default", index)

    def test_add_layer_on_live_service(self, index, swap_index, points):
        lats, lngs = points
        with ShardedJoinService(
            {"fine": index}, num_shards=2, backend="inline"
        ) as svc:
            svc.add_layer("coarse", swap_index)
            assert set(svc.layers) == {"fine", "coarse"}
            served = svc.join(lats[:1000], lngs[:1000], layer="coarse")
            assert_identical(served, swap_index.join(lats[:1000], lngs[:1000]))
            with pytest.raises(ValueError, match="already registered"):
                svc.add_layer("coarse", swap_index)

    def test_dynamic_index_rejected(self, index):
        from repro.core.dynamic import DynamicPolygonIndex

        dyn = DynamicPolygonIndex.build(
            [regular_polygon((-74.0, 40.70), 0.01, 12)], compact_threshold=None
        )
        with pytest.raises(TypeError, match="PolygonIndex"):
            ShardedJoinService(dyn, num_shards=2, backend="inline")

    def test_stats_merge(self, index, points):
        lats, lngs = points
        with ShardedJoinService(
            index, num_shards=3, backend="inline", cache_cells=1024
        ) as svc:
            svc.join(lats, lngs)
            svc.join(lats, lngs)
            stats = svc.stats()
        assert stats.requests == 2
        assert stats.points == 2 * len(lats)
        assert len(stats.shards) == 3
        # Shard-level dispatch counts sum to front dispatches per shard
        # engagement; every shard with members saw traffic here.
        assert sum(s.stats.points for s in stats.shards) == 2 * len(lats)
        # Warm second pass: the per-shard hot-cell caches must have hit.
        assert stats.cache_hit_rate > 0
        assert stats.layers["default"].num_polygons == len(index.polygons)


def _plane_bytes(index):
    with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
        return svc.plane_bytes()


class TestOneSegmentPerLayer:
    """A layer generation is published in exactly one segment, whatever
    ``num_shards`` is, and every lane attaches that segment."""

    @staticmethod
    def _assert_published_once(svc, before):
        """One segment per layer plus the ring, nothing else; every
        inline lane's snapshot buffers are views of its layer's segment."""
        layers = {svc._segments[name].name for name in svc.layers}
        assert len(layers) == len(svc.layers) == len(svc._segments)
        assert _shm_names() - before == layers | {svc._ring.name}
        if svc.backend != "inline":
            return
        for name in svc.layers:
            for client in svc._clients:
                snapshot = client._service._router.resolve(name)[1].snapshot
                assert snapshot.owner.name == svc._segments[name].name
                mapped = np.frombuffer(snapshot.owner.buf, dtype=np.uint8)
                for buffer in snapshot.buffers.values():
                    assert buffer.size == 0 or np.shares_memory(buffer, mapped)

    def test_one_segment_per_layer_at_three_shards(self, index, swap_index, points):
        lats, lngs = points
        before = _shm_names()
        with ShardedJoinService(
            {"fine": index, "coarse": swap_index}, num_shards=3, backend="inline"
        ) as svc:
            self._assert_published_once(svc, before)
            geometry_bytes, coverage_bytes = svc.plane_bytes("fine")
            assert geometry_bytes > 0
            assert coverage_bytes > 0
            assert svc.replication_factor("fine") == 1.0
            assert_identical(
                svc.join(lats, lngs, layer="fine", exact=True),
                index.join(lats, lngs, exact=True),
            )

    def test_every_lane_holds_the_whole_layer(self, index):
        """The plan splits the points, not the index: every lane's attached
        index carries the layer's full covering and every polygon it
        references, while the cut points still partition those cells."""
        whole = {cell.id: refs for cell, refs in index.super_covering.items()}
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            cells = _shard_cells(svc.plan(), index)
            assert {k: v for part in cells for k, v in part.items()} == whole
            assert sum(len(part) for part in cells) == len(whole)
            for client in svc._clients:
                sub = client._service._router.resolve(None)[1]
                assert type(sub) is PolygonIndex
                held = sub.super_covering
                assert {cell.id: refs for cell, refs in held.items()} == whole
                pids = set((held.packed_refs >> np.uint32(1)).tolist())
                assert pids == _referenced(whole)

    def test_one_segment_after_a_swap(self, index, swap_index, points):
        lats, lngs = points
        before = _shm_names()
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            svc.swap_layer("default", swap_index)
            self._assert_published_once(svc, before)
            assert svc.replication_factor() == 1.0
            assert_identical(
                svc.join(lats, lngs, exact=True),
                swap_index.join(lats, lngs, exact=True),
            )

    def test_one_segment_on_the_process_backend(self, index, points):
        lats, lngs = points
        before = _shm_names()
        direct = index.join(lats, lngs, exact=True)
        with ShardedJoinService(index, num_shards=2, backend="process") as svc:
            self._assert_published_once(svc, before)
            assert_identical(svc.join(lats, lngs, exact=True), direct)

    def test_unknown_plan_rejected(self, index):
        for mode in ("two-layer", "replicate"):
            with pytest.raises(TypeError, match="plan"):
                ShardedJoinService(index, num_shards=2, plan=mode)

    def test_attached_index_shards_identically(self, index, points):
        # Planning reads an attached index's covering off the snapshot's
        # buffers, and publishing re-ships the snapshot it holds.
        from repro.core import attach_index, pack_index

        lats, lngs = points
        attached = attach_index(pack_index(index))
        built_plan = ShardPlan.from_index(index, 3)
        plan = ShardPlan.from_index(attached, 3)
        assert list(plan.boundaries) == list(built_plan.boundaries)
        assert _shard_cells(plan, attached) == _shard_cells(built_plan, index)
        with ShardedJoinService(attached, num_shards=3, backend="inline") as svc:
            assert svc.plane_bytes() == _plane_bytes(index)
            assert_identical(
                svc.join(lats, lngs, exact=True),
                index.join(lats, lngs, exact=True),
            )

    def test_workers_refine_through_the_attached_engine(self, index, points):
        """No worker-side refiner subclass: every lane refines through a
        plain engine over the layer snapshot's one packed bucket table."""
        from repro.geo.refine import RefinementEngine

        lats, lngs = points
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            direct = index.join(lats, lngs, exact=True)
            assert direct.num_pip_tests > 0
            assert_identical(svc.join(lats, lngs, exact=True), direct)
            for client in svc._clients:
                sub = client._service._router.resolve(None)[1]
                refiner = sub.probe_view().refiner
                assert type(refiner) is RefinementEngine
                assert np.shares_memory(
                    refiner.table().y0, sub.snapshot.buffers["ref_y0"]
                )


class TestPartialFailureHandling:
    def test_partial_swap_poisons_the_service(
        self, index, swap_index, points, monkeypatch
    ):
        """Mixed generations across shards must never serve silently.

        Makes the worker-side sub-index build fail on the SECOND shard
        only: shard 0 swaps, shard 1 keeps the old snapshot, so no plan
        can match both — the service must refuse all further work.
        """
        import repro.serve.sharded as sharded_mod

        lats, lngs = points
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            real = sharded_mod._index_from_part
            calls = []

            def flaky(part, *, fresh_version):
                # Only swap attaches count (fresh_version=True); the
                # initial spawn attached with fresh_version=False.
                if fresh_version:
                    calls.append(part)
                    if len(calls) >= 2:
                        raise MemoryError("simulated worker build failure")
                return real(part, fresh_version=fresh_version)

            monkeypatch.setattr(sharded_mod, "_index_from_part", flaky)
            with pytest.raises(MemoryError):
                svc.swap_layer("default", swap_index)
            with pytest.raises(RuntimeError, match="inconsistent"):
                svc.join(lats[:100], lngs[:100])
            with pytest.raises(RuntimeError, match="inconsistent"):
                svc.stats()

    def test_uniform_swap_failure_leaves_service_usable(
        self, index, swap_index, points, monkeypatch
    ):
        """If EVERY shard rejects the change, nothing moved — keep serving."""
        import repro.serve.sharded as sharded_mod

        lats, lngs = points

        def always_fail(part, *, fresh_version):
            if fresh_version:
                raise MemoryError("simulated build failure on every shard")
            return _real(part, fresh_version=fresh_version)

        _real = sharded_mod._index_from_part
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            monkeypatch.setattr(sharded_mod, "_index_from_part", always_fail)
            with pytest.raises(MemoryError):
                svc.swap_layer("default", swap_index)
            monkeypatch.setattr(sharded_mod, "_index_from_part", _real)
            served = svc.join(lats[:500], lngs[:500], exact=True)
            assert_identical(served, index.join(lats[:500], lngs[:500], exact=True))


class TestShardedAdaptation:
    """Every lane is a JoinService with its own adaptation loop over its
    partition; a lane's retrain must install whatever version the front's
    layer was stamped with (a fresh worker process counts from 1)."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_every_lane_retrains_without_a_failure(self, backend):
        while PolygonIndex.build([regular_polygon((-74.0, 40.70), 0.01, 8)]).version < 6:
            pass  # throwaway builds: the served layer's version is >= 7
        index = PolygonIndex.build(_grid_polygons())
        assert index.version >= 7
        rng = np.random.default_rng(31)
        lngs = rng.uniform(-74.04, -73.92, 24_000)
        lats = rng.uniform(40.66, 40.78, 24_000)
        policy = AdaptationPolicy(
            sth_target=0.99, window_points=4_096, min_window_points=2_048,
            cooldown_points=4_096, max_training_points=5_000,
        )
        with ShardedJoinService(
            index, num_shards=2, backend=backend, adaptation=policy
        ) as svc:
            for lo in range(0, 16_000, 4_000):
                svc.join(lats[lo : lo + 4_000], lngs[lo : lo + 4_000], exact=True)
            deadline = time.monotonic() + 60.0
            while any(s.retraining for s in svc.stats().adaptation.values()):
                assert time.monotonic() < deadline, "a lane retrain never finished"
                time.sleep(0.05)
            lanes = svc.stats().adaptation
            served = svc.join(lats[16_000:], lngs[16_000:], exact=True)
        assert sorted(lanes) == ["default@shard0", "default@shard1"]
        for lane, status in lanes.items():
            assert status.retrains_failed == 0, lane
            assert status.retrains_completed >= 1, lane
        # Training moves only the true-hit / refinement split.
        want = index.join(lats[16_000:], lngs[16_000:], exact=True)
        assert np.array_equal(served.counts, want.counts)
        assert served.num_pairs == want.num_pairs


class TestShardBoundaryProperty:
    """Sharding must be invisible: bit-identical for ANY shard count.

    The hypothesis property scatters arbitrary point sets (including
    points probing polygons whose coverings straddle shard cuts) across
    arbitrary shard counts and compares every JoinResult statistic with
    the single-index join — before and, when requested, after a
    ``swap_layer``.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**20),
        num_points=st.integers(min_value=0, max_value=400),
        exact=st.booleans(),
        swap=st.booleans(),
    )
    def test_sharded_join_bit_identical(
        self, index, swap_index, num_shards, seed, num_points, exact, swap
    ):
        rng = np.random.default_rng(seed)
        lngs = rng.uniform(-74.05, -73.91, num_points)
        lats = rng.uniform(40.65, 40.79, num_points)
        with ShardedJoinService(
            index, num_shards=num_shards, backend="inline"
        ) as svc:
            reference = index
            if swap:
                svc.swap_layer("default", swap_index)
                reference = swap_index
            served = svc.join(lats, lngs, exact=exact, materialize=True)
            direct = reference.join(lats, lngs, exact=exact, materialize=True)
            assert_identical(served, direct)
            assert _pair_set(served) == _pair_set(direct)


class TestAwaitLanes:
    """Phase 2's wait, on a plain array standing in for the lane words."""

    def test_returns_once_every_lane_published(self):
        words = np.array([7, 7, 7, 0], dtype=np.int64)
        _await_lanes(words, 7, 3, timeout_s=0.0)  # word 3 is not a lane's

    def test_a_late_lane_raises_after_the_deadline_not_before(self):
        words = np.array([7, 6], dtype=np.int64)  # lane 1: the previous slice
        started = time.perf_counter()
        with pytest.raises(ShardWorkerError, match="published no cell ids") as info:
            _await_lanes(words, 7, 2, timeout_s=0.2)
        assert time.perf_counter() - started >= 0.2
        assert info.value.shard == 1

    def test_a_poisoned_word_raises_at_once(self):
        words = np.array([7, -7, 0], dtype=np.int64)
        started = time.perf_counter()
        with pytest.raises(ShardWorkerError, match="failed before publishing") as info:
            _await_lanes(words, 7, 3, timeout_s=60.0)
        assert time.perf_counter() - started < 5.0
        assert info.value.shard == 1

    @pytest.mark.parametrize("stale", [8, 1 << 40, -6, -8, 0])
    def test_only_equality_satisfies_it(self, stale):
        """A stale larger number, another slice's poison or an unrelated
        value neither passes the wait nor fails it early."""
        words = np.array([7, stale], dtype=np.int64)
        with pytest.raises(ShardWorkerError, match="published no cell ids"):
            _await_lanes(words, 7, 2, timeout_s=0.05)

    def test_a_lane_publishing_late_is_waited_for(self):
        words = np.array([3, 2], dtype=np.int64)
        timer = threading.Timer(0.1, words.__setitem__, (1, 3))
        timer.start()
        try:
            _await_lanes(words, 3, 2, timeout_s=30.0)
        finally:
            timer.join(timeout=10)
        assert not timer.is_alive()


HOSTILE = (np.nan, np.inf, -np.inf)


class TestLanesComputeIds:
    """Every door of the two-phase path gives what ``PolygonIndex.join``
    gives: the lanes computing the ids, the caller bringing them."""

    def _assert_every_door(self, svc, index, lats, lngs, exact, materialize):
        direct = index.join(lats, lngs, exact=exact, materialize=materialize)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        for cell_ids in (None, ids):
            served = svc.join(
                lats, lngs, exact=exact, materialize=materialize, cell_ids=cell_ids
            )
            assert_identical(served, direct)
            if materialize:
                assert _pair_set(served) == _pair_set(direct)
        # What the front hands back (join_layers reuses it) is the kernel's.
        _, handed_back = svc._serve(
            "default", index, lats, lngs, None, exact, False, span_meta={}
        )
        assert handed_back.dtype == np.uint64
        assert np.array_equal(handed_back, ids)

    @settings(max_examples=25, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**20),
        num_points=st.integers(min_value=0, max_value=300),
        exact=st.booleans(),
        materialize=st.booleans(),
    )
    def test_inline_doors_agree(
        self, index, num_shards, seed, num_points, exact, materialize
    ):
        rng = np.random.default_rng(seed)
        lngs = rng.uniform(-74.05, -73.91, num_points)
        lats = rng.uniform(40.65, 40.79, num_points)
        with ShardedJoinService(
            index, num_shards=num_shards, backend="inline"
        ) as svc:
            self._assert_every_door(svc, index, lats, lngs, exact, materialize)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_edge_batches(self, index, points, backend):
        """One service, the batches that stress the positional split: two
        ring slices (two sequence numbers, ``pair_points`` offset by the
        slice), fewer points than lanes (empty shares publish too), no
        point at all, NaN / ±inf coordinates, and ``lookup()``."""
        lats, lngs = points
        rng = np.random.default_rng(9)
        size = OFFLINE_MORSEL_POINTS + 5
        big = rng.uniform(40.66, 40.78, size), rng.uniform(-74.04, -73.92, size)
        hostile_lats = np.concatenate([lats[:40], HOSTILE, lats[40:43]])
        hostile_lngs = np.concatenate([lngs[:40], lngs[40:43], HOSTILE])
        num_shards = 3 if backend == "inline" else 2
        with ShardedJoinService(
            index, num_shards=num_shards, backend=backend
        ) as svc, np.errstate(invalid="ignore"):
            for exact in (False, True):
                for materialize in (False, True):
                    self._assert_every_door(svc, index, *big, exact, materialize)
                    self._assert_every_door(
                        svc, index, lats[:1], lngs[:1], exact, materialize
                    )
                    self._assert_every_door(
                        svc, index, lats[:0], lngs[:0], exact, materialize
                    )
                    self._assert_every_door(
                        svc, index, hostile_lats, hostile_lngs, exact, materialize
                    )
            for i in range(5):
                assert svc.lookup(lats[i], lngs[i]) == index.containing_polygons(
                    lats[i], lngs[i]
                )

    def test_join_layers_computes_ids_once(
        self, index, swap_index, points, monkeypatch
    ):
        """The lanes compute ids for the first layer's slices only; the
        front reads them back and brings them to every later layer."""
        lats, lngs = points
        calls = {"fine": [], "coarse": []}
        with ShardedJoinService(
            {"fine": index, "coarse": swap_index}, num_shards=3, backend="inline"
        ) as svc:
            for client in svc._clients:
                for name in calls:
                    _, sub = client._service._router.resolve(name)

                    def spy(lats, lngs, name=name, real=sub.cell_ids_for):
                        calls[name].append(len(lats))
                        return real(lats, lngs)

                    monkeypatch.setattr(sub, "cell_ids_for", spy)
            results = svc.join_layers(lats, lngs, exact=True)
            assert len(calls["fine"]) == 3 and sum(calls["fine"]) == len(lats)
            assert calls["coarse"] == []
            assert_identical(results["fine"], svc.join(lats, lngs, layer="fine", exact=True))
            assert_identical(results["coarse"], swap_index.join(lats, lngs, exact=True))

    def test_a_failed_phase_one_fails_the_dispatch_not_the_service(
        self, index, points, monkeypatch
    ):
        """A lane whose id computation raises poisons its word: the other
        lanes' waits fail at once, the dispatch raises, the next works."""
        lats, lngs = points
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            _, sub = svc._clients[1]._service._router.resolve(None)

            def broken(lats, lngs):
                raise MemoryError("simulated id failure")

            with monkeypatch.context() as patch:
                patch.setattr(sub, "cell_ids_for", broken)
                started = time.perf_counter()
                with pytest.raises(ShardWorkerError, match="before publishing") as info:
                    svc.join(lats, lngs, exact=True)
                assert info.value.shard == 1  # lane 0's wait names the culprit
                assert time.perf_counter() - started < 5.0  # not the deadline
            assert_identical(
                svc.join(lats, lngs, exact=True), index.join(lats, lngs, exact=True)
            )


def _proc_stat(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name: state
    first, utime and stime at 11 and 12 (Linux)."""
    return pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _lane_cpu_ticks(pid: int) -> int:
    fields = _proc_stat(pid)
    return int(fields[11]) + int(fields[12])


def _wait_until_stopped(pid: int, timeout_s: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if _proc_stat(pid)[0] in "Tt":
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} never stopped")


class TestProcessBackend:
    """End-to-end spawn-safe worker processes + shared-memory scatter."""

    def test_process_service_end_to_end(self, index, swap_index, points):
        lats, lngs = points
        direct_exact = index.join(lats, lngs, exact=True)
        direct_approx = index.join(lats, lngs)
        with ShardedJoinService(index, num_shards=2, backend="process") as svc:
            assert_identical(svc.join(lats, lngs, exact=True), direct_exact)
            assert_identical(svc.join(lats, lngs), direct_approx)
            # Single-point path through the front micro-batcher.
            for i in range(10):
                assert svc.lookup(lats[i], lngs[i]) == index.containing_polygons(
                    lats[i], lngs[i]
                )
            stats = svc.stats()
            assert len(stats.shards) == 2
            assert stats.points >= 2 * len(lats)
            # A failed control message surfaces as ShardWorkerError with
            # the worker traceback, and the worker survives it.
            with pytest.raises(ShardWorkerError, match="unknown shard op"):
                svc._clients[0].request(("bogus-op",))
            # Swap fans out per shard; results track the new snapshot.
            svc.swap_layer("default", swap_index)
            assert_identical(
                svc.join(lats, lngs, exact=True),
                swap_index.join(lats, lngs, exact=True),
            )
        # Workers are reaped on close.
        for client in svc._clients:
            assert not client._process.is_alive()

    def test_dead_worker_surfaces_as_error_not_stale_results(
        self, index, points
    ):
        """A killed worker must raise, never desynchronize the pipes."""
        lats, lngs = points
        svc = ShardedJoinService(index, num_shards=2, backend="process")
        try:
            baseline = svc.join(lats[:2000], lngs[:2000], exact=True)
            assert baseline.num_points == 2000
            svc._clients[1]._process.terminate()
            svc._clients[1]._process.join(timeout=10)
            # Every subsequent scatter touching the dead shard errors
            # cleanly and repeatably (no stale replies from live shards
            # leaking into later joins).
            # Promptly: the front poisons the dead lane's word, so the
            # live lane never waits for it until the deadline.
            for _ in range(3):
                started = time.perf_counter()
                with pytest.raises(ShardWorkerError):
                    svc.join(lats[:2000], lngs[:2000], exact=True)
                assert time.perf_counter() - started < 1.0
        finally:
            svc.close()

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/stat").exists(), reason="reads /proc"
    )
    def test_worker_killed_after_its_send_succeeded(
        self, index, points, monkeypatch
    ):
        """The lane that got the message and died never publishes: the
        surviving lane gives up at the barrier deadline (sent by the front
        with the message), the front raises, the service stays failed and
        closes cleanly."""
        import repro.serve.sharded as sharded_mod

        lats, lngs = points
        before = _shm_names()
        svc = ShardedJoinService(index, num_shards=2, backend="process")
        # Shrunk once the workers answered the spawn barrier (its ping
        # waits on the same timeout); the barrier gets half of it.
        monkeypatch.setattr(sharded_mod, "_LANE_TIMEOUT_S", 0.6)
        try:
            svc.join(lats[:2000], lngs[:2000], exact=True)
            victim = svc._clients[1]
            os.kill(victim._process.pid, signal.SIGSTOP)
            _wait_until_stopped(victim._process.pid)
            real_start = victim.start

            def start_then_kill(msg):
                real_start(msg)  # lands in the pipe of a stopped process
                victim._process.kill()
                victim._process.join(timeout=10)

            monkeypatch.setattr(victim, "start", start_then_kill)
            started = time.perf_counter()
            with pytest.raises(ShardWorkerError):
                svc.join(lats[:2000], lngs[:2000], exact=True)
            elapsed = time.perf_counter() - started
            assert 0.3 <= elapsed < 5.0  # the barrier deadline, once
            assert not victim._process.is_alive()
            monkeypatch.setattr(victim, "start", real_start)
            started = time.perf_counter()
            with pytest.raises(ShardWorkerError):
                svc.join(lats[:2000], lngs[:2000], exact=True)
            assert time.perf_counter() - started < 1.0  # send fails: poisoned
        finally:
            svc.close()
        assert _shm_names() - before == set()

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/stat").exists(), reason="reads /proc"
    )
    def test_idle_lanes_burn_no_cpu(self, index, points):
        """Between messages a lane blocks in ``recv()``: nothing polls."""
        lats, lngs = points
        with ShardedJoinService(index, num_shards=2, backend="process") as svc:
            svc.join(lats, lngs, exact=True)
            pids = [client._process.pid for client in svc._clients]
            ticks = [_lane_cpu_ticks(pid) for pid in pids]
            time.sleep(1.0)
            idle = [_lane_cpu_ticks(pid) - then for pid, then in zip(pids, ticks)]
            assert max(idle) <= 2  # of ~100 ticks per second
            assert_identical(
                svc.join(lats, lngs, exact=True), index.join(lats, lngs, exact=True)
            )

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="Linux scheduling API"
    )
    def test_one_cpu_does_not_livelock(self):
        """With a one-CPU mask both lanes pin to that CPU: the wait must
        give it away, or every op burns a scheduler slice per lane."""
        script = textwrap.dedent(
            """
            import os, sys, time
            import numpy as np

            def main():
                os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
                from repro import PolygonIndex
                from repro.geo.polygon import regular_polygon
                from repro.serve import ShardedJoinService
                polygons = [
                    regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
                    for gx in range(3) for gy in range(3)
                ]
                index = PolygonIndex.build(polygons, precision_meters=30.0)
                rng = np.random.default_rng(3)
                with ShardedJoinService(index, num_shards=2, backend="process") as svc:
                    reports = [c.request(("ping",)) for c in svc._clients]
                    assert reports[0]["affinity"] == reports[1]["affinity"], reports
                    assert len(reports[0]["affinity"]) == 1, reports
                    started = time.perf_counter()
                    for _ in range(20):
                        lats = rng.uniform(40.66, 40.78, 4000)
                        lngs = rng.uniform(-74.04, -73.92, 4000)
                        served = svc.join(lats, lngs, exact=True, materialize=True)
                        direct = index.join(lats, lngs, exact=True, materialize=True)
                        assert np.array_equal(served.counts, direct.counts)
                        assert served.num_pip_tests == direct.num_pip_tests
                        assert set(zip(served.pair_points.tolist(), served.pair_polygons.tolist())) == set(
                            zip(direct.pair_points.tolist(), direct.pair_polygons.tolist()))
                    print("elapsed", time.perf_counter() - started)

            if __name__ == "__main__":
                main()
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(pathlib.Path(__file__).resolve().parents[1] / "src"),
             env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        elapsed = float(done.stdout.split()[-1])
        assert elapsed < 20.0  # 20 small joins: seconds, never 20 deadlines

    def test_close_is_bounded_when_a_worker_is_wedged(
        self, index, monkeypatch
    ):
        """A stopped worker never acknowledges ``close`` and never sees
        SIGTERM: close() must give up waiting, kill it, reap it, and
        still unlink every segment (layers and ring)."""
        import repro.serve.sharded as sharded_mod

        before = _shm_names()
        svc = ShardedJoinService(index, num_shards=2, backend="process")
        monkeypatch.setattr(sharded_mod, "_LANE_TIMEOUT_S", 0.3)
        wedged = svc._clients[1]._process
        os.kill(wedged.pid, signal.SIGSTOP)
        try:
            started = time.perf_counter()
            svc.close()
            elapsed = time.perf_counter() - started
        finally:
            if wedged.is_alive():  # pragma: no cover - the bug under test
                wedged.kill()
        assert elapsed < 5.0  # three 0.3 s waits, not for ever
        for client in svc._clients:
            assert not client._process.is_alive()
        assert wedged.exitcode == -signal.SIGKILL
        assert _shm_names() - before == set()

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/stat").exists(), reason="reads /proc"
    )
    def test_a_wedged_worker_fails_the_dispatch_not_forever(
        self, index, points, monkeypatch
    ):
        """A stopped worker never publishes and never replies: its peer
        gives up at the barrier (half the lane timeout), the front stops
        waiting for the stopped one's reply after the lane timeout and
        kills it — the join raises within twice the timeout.  The next
        join fails at once on the dead pipe, close() returns and every
        segment is unlinked."""
        import repro.serve.sharded as sharded_mod

        lats, lngs = points
        timeout = 0.5
        before = _shm_names()
        svc = ShardedJoinService(index, num_shards=2, backend="process")
        monkeypatch.setattr(sharded_mod, "_LANE_TIMEOUT_S", timeout)
        wedged = svc._clients[1]._process
        try:
            svc.join(lats[:2000], lngs[:2000], exact=True)
            os.kill(wedged.pid, signal.SIGSTOP)
            _wait_until_stopped(wedged.pid)
            started = time.perf_counter()
            with pytest.raises(ShardWorkerError):
                svc.join(lats[:2000], lngs[:2000], exact=True)
            assert time.perf_counter() - started < 2 * timeout
            assert wedged.exitcode == -signal.SIGKILL  # killed and reaped
            started = time.perf_counter()
            with pytest.raises(ShardWorkerError, match="pipe closed"):
                svc.join(lats[:2000], lngs[:2000], exact=True)
            assert time.perf_counter() - started < 1.0
        finally:
            if wedged.is_alive():  # pragma: no cover - the bug under test
                wedged.kill()
            svc.close()
        assert not svc._clients[0]._process.is_alive()
        assert _shm_names() - before == set()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="Linux scheduling API"
    )
    def test_lanes_are_placed_and_the_caller_is_not(self, index):
        """Each worker binds to one CPU of the mask it inherited and runs
        SCHED_BATCH; the calling thread keeps its mask and policy, with
        either backend."""
        mask = os.sched_getaffinity(0)
        policy = os.sched_getscheduler(0)
        with ShardedJoinService(index, num_shards=2, backend="process") as svc:
            reports = [client.request(("ping",)) for client in svc._clients]
        cpus = [report["affinity"] for report in reports]
        assert all(len(lane) == 1 and lane[0] in mask for lane in cpus)
        if len(mask) >= 2:
            assert cpus[0] != cpus[1]
        assert [report["policy"] for report in reports] == [os.SCHED_BATCH] * 2
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            for client in svc._clients:
                report = client.request(("ping",))
                assert report["affinity"] == sorted(mask)
                assert report["policy"] == policy
        assert os.sched_getaffinity(0) == mask
        assert os.sched_getscheduler(0) == policy


class TestSnapshotSegmentLifecycle:
    """Flat-snapshot shared-memory segments must never leak.

    The front owns every segment it publishes: close() unlinks them all,
    swap retires the previous generation, and a failure mid-spawn or
    mid-swap releases whatever was already published.
    """

    def test_close_unlinks_every_segment(self, index, points):
        lats, lngs = points
        before = _shm_names()
        svc = ShardedJoinService(index, num_shards=2, backend="process")
        try:
            created = _shm_names() - before
            assert created  # the front published the layer's segment
            assert {s.name for s in svc._segments.values()} <= created
            assert_identical(
                svc.join(lats[:1000], lngs[:1000], exact=True),
                index.join(lats[:1000], lngs[:1000], exact=True),
            )
        finally:
            svc.close()
        assert _shm_names() - before == set()

    def test_swap_retires_the_previous_generation(self, index, swap_index):
        before = _shm_names()
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            first = _shm_names() - before
            svc.swap_layer("default", swap_index)
            second = _shm_names() - before
            # The old generation's segment is gone, the new one's live;
            # only the scatter ring spans generations.
            assert first & second == {svc._ring.name}
            assert second - first
        assert _shm_names() - before == set()

    def test_mid_spawn_failure_unlinks_segments(self, index, monkeypatch):
        """Lane 1 fails to come up: the segments go, and so does lane 0 —
        its service closed, its batcher thread gone."""
        import repro.serve.sharded as sharded_mod

        real = sharded_mod._build_shard_service
        calls, services = [], []

        def flaky(payload):
            calls.append(payload.ring_shm in _shm_names())
            if len(calls) >= 2:
                raise MemoryError("simulated spawn failure on shard 1")
            services.append(real(payload))
            return services[-1]

        def batchers() -> set:
            return {t for t in threading.enumerate() if t.name == "repro-serve-batcher"}

        monkeypatch.setattr(sharded_mod, "_build_shard_service", flaky)
        before, threads = _shm_names(), batchers()
        with pytest.raises(MemoryError):
            ShardedJoinService(index, num_shards=2, backend="inline")
        # The scatter ring was already published when the spawn failed,
        # and went with the layer segment.
        assert calls == [True, True]
        assert _shm_names() - before == set()
        assert len(services) == 1 and services[0]._closed
        assert batchers() == threads

    @pytest.mark.parametrize("failing", [False, True])
    def test_inline_dispatch_leaves_no_segment(
        self, index, points, monkeypatch, failing
    ):
        """Construction publishes the layer segment plus exactly one scatter
        ring; no dispatch creates another segment — also when a lane's
        join raises, which surfaces as the ORIGINAL exception and leaves
        the ring fit for the next dispatch; ``close()`` leaves
        ``/dev/shm`` as it found it."""
        lats, lngs = points
        direct = index.join(lats, lngs, exact=True)
        before = _shm_names()
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            published = _shm_names()
            layers = {s.name for s in svc._segments.values()}
            assert published - before - layers == {svc._ring.name}
            seen = []
            real = svc._clients[1]._service.join

            def lane_join(*args, **kwargs):
                seen.append(_shm_names() - published)
                if failing:
                    raise MemoryError("simulated shard join failure")
                return real(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(svc._clients[1]._service, "join", lane_join)
                if failing:
                    with pytest.raises(MemoryError, match="simulated"):
                        svc.join(lats, lngs, exact=True)
                else:
                    assert_identical(svc.join(lats, lngs, exact=True), direct)
            assert seen == [set()]  # mid-dispatch: nothing new
            assert_identical(svc.join(lats, lngs, exact=True), direct)
            assert _shm_names() == published
        assert _shm_names() == before

    def test_spawn_seconds_reported_per_shard(self, index):
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            assert len(svc.spawn_seconds) == 2
            assert all(s >= 0 for s in svc.spawn_seconds)

    def test_invalid_snapshot_mode_rejected(self, index):
        for mode in ("flat", "rebuild"):
            with pytest.raises(TypeError, match="snapshot"):
                ShardedJoinService(index, num_shards=2, snapshot=mode)
