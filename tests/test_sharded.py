"""Tests for sharded multi-process serving (repro.serve.sharded)."""

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
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core import AdaptationPolicy
from repro.core.morsels import OFFLINE_MORSEL_POINTS
from repro.geo.polygon import regular_polygon
from repro.serve import JoinService, ShardPlan, ShardWorkerError, ShardedJoinService

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


def _pairs_by_share(index, plan, lats, lngs, exact):
    """The pair arrays of a sharded join, built from direct joins: per
    ring slice, per lane, ``index.join(materialize=True)`` over the lane's
    share, its ``pair_points`` offset by where the share starts."""
    points, polygons = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, len(lats), OFFLINE_MORSEL_POINTS):
        total = min(len(lats) - lo, OFFLINE_MORSEL_POINTS)
        for shard in range(plan.num_shards):
            a, b = (lo + end for end in plan.share(shard, total))
            part = index.join(lats[a:b], lngs[a:b], exact=exact, materialize=True)
            points.append(part.pair_points + a)
            polygons.append(part.pair_polygons)
    return np.concatenate(points), np.concatenate(polygons)


class TestPositionalSplit:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 6])
    def test_lane_k_joins_exactly_its_share(self, index, num_shards):
        """Lane ``k`` of ``N`` joins exactly positions ``[k·⌈n/N⌉,
        (k+1)·⌈n/N⌉)`` (clipped to ``n``) of every ring slice of ``n``
        points, read off each lane's own point count."""
        rng = np.random.default_rng(num_shards)
        with ShardedJoinService(
            index, num_shards=num_shards, backend="inline"
        ) as svc:
            plan = svc.plan()
            assert plan == ShardPlan(num_shards)
            for size in (0, 1, num_shards - 1, OFFLINE_MORSEL_POINTS + 7):
                lats = rng.uniform(40.66, 40.78, size)
                lngs = rng.uniform(-74.04, -73.92, size)
                want = np.zeros(num_shards, dtype=np.int64)
                for lo in range(0, size, OFFLINE_MORSEL_POINTS):
                    total = min(size - lo, OFFLINE_MORSEL_POINTS)
                    step = -(-total // num_shards)
                    for shard in range(num_shards):
                        a, b = min(shard * step, total), min((shard + 1) * step, total)
                        assert plan.share(shard, total) == (a, b)
                        want[shard] += b - a
                before = [lane.stats.points for lane in svc.stats().shards]
                svc.join(lats, lngs, exact=True)
                after = [lane.stats.points for lane in svc.stats().shards]
                assert np.subtract(after, before).tolist() == want.tolist()

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 6])
    def test_shard_for_agrees_with_share(self, num_shards):
        """``shard_for`` names, for every position of a batch spanning
        several ring slices, the lane whose ``share`` of that slice holds
        it: each slice runs lane 0, 1, … in order, and the shares tile it."""
        plan = ShardPlan(num_shards)
        for size in (0, 1, num_shards - 1, 2 * OFFLINE_MORSEL_POINTS + 7):
            lanes = plan.shard_for(np.empty(size))
            assert lanes.shape == (size,)
            for lo in range(0, size, OFFLINE_MORSEL_POINTS):
                total = min(size - lo, OFFLINE_MORSEL_POINTS)
                piece = lanes[lo : lo + total]
                assert (np.diff(piece) >= 0).all()
                for shard in range(num_shards):
                    a, b = plan.share(shard, total)
                    assert (piece[a:b] == shard).all()
                    assert np.count_nonzero(piece == shard) == b - a

    def test_more_lanes_than_points_serves_identically(self, index, points):
        """Batches shorter than the lane count leave the trailing lanes an
        empty share; the answer is still bit-identical to a direct join,
        pairs included."""
        lats, lngs = points
        with ShardedJoinService(index, num_shards=6, backend="inline") as svc:
            for size in range(6):
                for exact in (False, True):
                    served = svc.join(
                        lats[:size], lngs[:size], exact=exact, materialize=True
                    )
                    direct = index.join(
                        lats[:size], lngs[:size], exact=exact, materialize=True
                    )
                    assert_identical(served, direct)
                    assert _pair_set(served) == _pair_set(direct)
                    want = _pairs_by_share(
                        index, svc.plan(), lats[:size], lngs[:size], exact
                    )
                    assert np.array_equal(served.pair_points, want[0])
                    assert np.array_equal(served.pair_polygons, want[1])

    def test_invalid_shard_count(self, index):
        with pytest.raises(ValueError, match="num_shards"):
            ShardPlan(0)
        with pytest.raises(ValueError, match="num_shards"):
            ShardedJoinService(index, num_shards=0, backend="inline")

    @pytest.mark.parametrize("num_shards", [2, 3])
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_empty_layer_joins_promptly(self, index, points, backend, num_shards):
        """A layer without cells still has every lane join its share: the
        zero result, at once — at construction and after a swap to an
        empty layer."""
        lats, lngs = points
        empty = PolygonIndex.build([])
        with ShardedJoinService(
            {"default": index, "empty": empty},
            num_shards=num_shards,
            backend=backend,
        ) as svc:
            svc.swap_layer("default", PolygonIndex.build([]))
            for layer in ("empty", "default"):
                started = time.perf_counter()
                served = svc.join(lats, lngs, layer=layer, exact=True)
                assert time.perf_counter() - started < 1.0
                assert_identical(served, empty.join(lats, lngs, exact=True))
                assert served.num_points == len(lats) and served.num_pairs == 0

    @pytest.mark.parametrize("accessor", ["plan", "plane_bytes", "stats", "join"])
    def test_a_closed_service_answers_no_accessor(self, index, accessor):
        """Regression: after ``close()`` ``plan()`` still answered and
        ``plane_bytes()`` raised ``KeyError: 'default'``."""
        svc = ShardedJoinService(index, num_shards=2, backend="inline")
        svc.close()
        args = (np.zeros(1), np.zeros(1)) if accessor == "join" else ()
        with pytest.raises(RuntimeError, match="service is closed"):
            getattr(svc, accessor)(*args)


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

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("materialize", [False, True])
    def test_ring_reuse_and_slices_keep_results_and_pair_order(
        self, index, exact, materialize, backend
    ):
        """One ring serves every dispatch: a large batch after a small
        one after a large one (stale slots beyond ``total`` must never
        be joined), then one batch of two ring slices.  Pairs come out
        lane by lane, each lane's as a direct join of its share gives
        them."""
        rng = np.random.default_rng(5)
        sizes = [6_000, 40, 6_000, OFFLINE_MORSEL_POINTS + 7]
        with ShardedJoinService(index, num_shards=3, backend=backend) as svc:
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
                pair_points, pair_polygons = _pairs_by_share(
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

    def test_start_method_is_gone(self, index):
        """Workers always start with ``spawn``: the service takes no
        start method."""
        with pytest.raises(TypeError, match="start_method"):
            ShardedJoinService(index, num_shards=2, start_method="fork")

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
        references."""
        whole = {cell.id: refs for cell, refs in index.super_covering.items()}
        referenced = {ref.polygon_id for refs in whole.values() for ref in refs}
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            for client in svc._clients:
                sub = client._service._router.resolve(None)[1]
                assert type(sub) is PolygonIndex
                held = sub.super_covering
                assert {cell.id: refs for cell, refs in held.items()} == whole
                pids = set((held.packed_refs >> np.uint32(1)).tolist())
                assert pids == referenced

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
        # Publishing re-ships the snapshot an attached index holds.
        from repro.core import attach_index, pack_index

        lats, lngs = points
        attached = attach_index(pack_index(index))
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
        only: shard 0 swaps, shard 1 keeps the old snapshot, so no
        dispatch can join both as one — the service must refuse all
        further work.
        """
        import repro.serve.sharded as sharded_mod

        lats, lngs = points
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            real = sharded_mod._index_from_part
            calls = []

            def flaky(part):
                calls.append(part)
                if len(calls) >= 2:
                    raise MemoryError("simulated worker build failure")
                return real(part)

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

        def always_fail(part):
            raise MemoryError("simulated build failure on every shard")

        _real = sharded_mod._index_from_part
        with ShardedJoinService(index, num_shards=2, backend="inline") as svc:
            monkeypatch.setattr(sharded_mod, "_index_from_part", always_fail)
            with pytest.raises(MemoryError):
                svc.swap_layer("default", swap_index)
            monkeypatch.setattr(sharded_mod, "_index_from_part", _real)
            served = svc.join(lats[:500], lngs[:500], exact=True)
            assert_identical(served, index.join(lats[:500], lngs[:500], exact=True))

    @pytest.mark.parametrize("failing", ["one_lane", "every_lane"])
    @pytest.mark.parametrize("op", ["swap_layer", "add_layer"])
    def test_failed_install_unlinks_its_segment(
        self, index, swap_index, monkeypatch, op, failing
    ):
        """A swap or add that fails on one lane (poisoning the service) or
        on every lane (leaving it usable) reclaims the segment it
        published: ``/dev/shm`` holds what it held before the call, and
        after ``close()`` what it held before the service."""
        import repro.serve.sharded as sharded_mod

        real = sharded_mod._index_from_part
        calls = []

        def flaky(part):
            calls.append(part)
            if failing == "every_lane" or len(calls) >= 2:
                raise MemoryError("simulated worker attach failure")
            return real(part)

        before_service = _shm_names()
        svc = ShardedJoinService(index, num_shards=2, backend="inline")
        try:
            before_call = _shm_names()
            monkeypatch.setattr(sharded_mod, "_index_from_part", flaky)
            with pytest.raises(MemoryError):
                if op == "swap_layer":
                    svc.swap_layer("default", swap_index)
                else:
                    svc.add_layer("extra", swap_index)
            assert len(calls) == 2
            assert _shm_names() == before_call
        finally:
            svc.close()
        assert _shm_names() == before_service


#: A policy the uniform test stream drifts below at once: a retrain
#: starts at the second 1,500-point dispatch.
_ADAPT_POLICY = AdaptationPolicy(
    sth_target=0.99, window_points=4_096, min_window_points=2_048,
    cooldown_points=4_096, max_training_points=5_000,
)


def _adapt_stream(count=24_000, batch=1_500):
    rng = np.random.default_rng(31)
    lngs = rng.uniform(-74.04, -73.92, count)
    lats = rng.uniform(40.66, 40.78, count)
    return [(lats[lo : lo + batch], lngs[lo : lo + batch]) for lo in range(0, count, batch)]


def _window(status):
    return status.window_points, status.window_sth_rate, status.tracked_keys


class TestShardedAdaptation:
    """One adaptation loop per layer, at the front: the lanes report the
    traffic of their shares, the front records one increment per
    dispatch — the record a JoinService makes for the same batch — and
    its one retrain publishes like any swap."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_the_front_retrains_as_a_join_service_would(self, index, backend):
        batches = _adapt_stream()
        with JoinService(index, adaptation=_ADAPT_POLICY) as single, ShardedJoinService(
            index, num_shards=2, backend=backend, adaptation=_ADAPT_POLICY
        ) as svc:
            for position, (lats, lngs) in enumerate(batches):
                want = single.stats().adaptation.get("default")
                got = svc.stats().adaptation.get("default")
                assert (want is None) == (got is None)
                if want is not None:
                    assert _window(got) == _window(want)
                single.join(lats, lngs, exact=True)
                svc.join(lats, lngs, exact=True)
                started = svc.stats().adaptation["default"].retrains_started
                assert single.stats().adaptation["default"].retrains_started == started
                if started == 1:
                    break
            assert position > 0  # the windows were compared while filling
            single.adaptation.wait()
            svc.adaptation.wait()
            assert np.array_equal(
                svc.adaptation.last_training_ids("default"),
                single.adaptation.last_training_ids("default"),
            )
            stats = svc.stats()
            assert list(stats.adaptation) == ["default"]
            status = stats.adaptation["default"]
            assert _window(status) == _window(single.stats().adaptation["default"])
            assert (status.retrains_completed, status.retrains_failed) == (1, 0)
            assert all(shard.stats.adaptation == {} for shard in stats.shards)
            for lats, lngs in batches[position + 1 :]:
                served = svc.join(lats, lngs, exact=True)
                # Training moves only the true-hit / refinement split:
                # every statistic matches the JoinService's retrained
                # layer, the pairs match the untrained index.
                assert_identical(served, single.join(lats, lngs, exact=True))
                direct = index.join(lats, lngs, exact=True)
                assert np.array_equal(served.counts, direct.counts)
                assert served.num_pairs == direct.num_pairs

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_one_generation_everywhere(self, index, backend):
        """After every front retrain the front, its controller and every
        lane report one version; the published planes are the retrained
        generation's, in one segment beside the ring; close leaves
        nothing behind."""
        before = _shm_names()
        retrains = 0
        with ShardedJoinService(
            index, num_shards=2, backend=backend, adaptation=_ADAPT_POLICY
        ) as svc:
            for lats, lngs in _adapt_stream():
                svc.join(lats, lngs, exact=True)
                if svc.adaptation.status()["default"].retrains_started == retrains:
                    continue
                retrains += 1
                svc.adaptation.wait()
                stats = svc.stats()
                status = stats.adaptation["default"]
                assert status.retrains_completed == retrains
                version = stats.layers["default"].version
                assert version > index.version
                assert status.last_trained_version == version
                assert [
                    shard.stats.layers["default"].version for shard in stats.shards
                ] == [version, version]
                _, retrained = svc._router.resolve("default")
                assert svc.plane_bytes() == _plane_bytes(retrained)
                assert _shm_names() - before == {
                    svc._segments["default"].name, svc._ring.name
                }
        assert retrains >= 1
        assert _shm_names() - before == set()

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_close_waits_for_an_in_flight_retrain(self, index, backend, monkeypatch):
        real = PolygonIndex.retrained

        def slow(self, *args, **kwargs):
            time.sleep(0.3)  # still retraining when close() is called
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PolygonIndex, "retrained", slow)
        before = _shm_names()
        svc = ShardedJoinService(
            index, num_shards=2, backend=backend, adaptation=_ADAPT_POLICY
        )
        try:
            for lats, lngs in _adapt_stream():
                svc.join(lats, lngs, exact=True)
                if svc.adaptation.status()["default"].retrains_started:
                    break
            assert svc.adaptation.status()["default"].retraining
        finally:
            svc.close()
        status = svc.adaptation.status()["default"]
        assert (status.retrains_completed, status.retrains_failed) == (1, 0)
        assert svc.adaptation.last_error is None
        assert _shm_names() - before == set()


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


HOSTILE = (np.nan, np.inf, -np.inf)


class TestLanesComputeIds:
    """Every door of the lanes' path gives what ``PolygonIndex.join``
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
        ring slices (``pair_points`` offset by the slice), fewer points
        than lanes (empty shares reply the zero result), no point at all,
        NaN / ±inf coordinates, and ``lookup()``."""
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
        """A lane whose id computation raises fails on its own: the
        dispatch raises that lane's error at once, the next join works."""
        lats, lngs = points
        with ShardedJoinService(index, num_shards=3, backend="inline") as svc:
            _, sub = svc._clients[1]._service._router.resolve(None)

            def broken(lats, lngs):
                raise MemoryError("simulated id failure")

            with monkeypatch.context() as patch:
                patch.setattr(sub, "cell_ids_for", broken)
                started = time.perf_counter()
                with pytest.raises(MemoryError, match="simulated id failure"):
                    svc.join(lats, lngs, exact=True)
                assert time.perf_counter() - started < 5.0
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
            # leaking into later joins), and promptly: the send to the
            # dead lane fails, and no lane waits for another.
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
        """The lane that got the message and died never replies: the
        front reads EOF from its pipe and raises at once (no lane waits
        on another, and the lane timeout is left at its default), the
        service stays failed and closes cleanly."""
        lats, lngs = points
        before = _shm_names()
        svc = ShardedJoinService(index, num_shards=2, backend="process")
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
            assert time.perf_counter() - started < 1.0  # EOF, no deadline
            assert not victim._process.is_alive()
            monkeypatch.setattr(victim, "start", real_start)
            started = time.perf_counter()
            with pytest.raises(ShardWorkerError):
                svc.join(lats[:2000], lngs[:2000], exact=True)
            assert time.perf_counter() - started < 1.0  # the send fails
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
        """With a one-CPU mask both lanes pin to that CPU and still serve
        20 small joins in seconds."""
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
        """A stopped worker never replies: its peer replies at once, the
        front stops waiting for the stopped one's reply after the lane
        timeout and kills it — the join raises within twice the timeout.  The next
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
