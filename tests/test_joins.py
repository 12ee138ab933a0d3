"""Tests for the join algorithms (Listing 3) and entry decoding."""

import contextlib
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.core import AdaptiveCellTrie, DynamicPolygonIndex, PolygonIndex
from repro.core.joins import (
    accurate_join,
    approximate_join,
    decode_entries,
    join_batch,
    merge_join_results,
    parallel_count_join,
)
from repro.core.lookup_table import (
    TAG_OFFSET,
    TAG_ONE_REF,
    TAG_TWO_REFS,
    LookupTable,
)
from repro.core.morsels import map_morsels
from repro.core.refs import PolygonRef
from repro.core.rows import RowTable
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon
from repro.geo.refine import RefinementEngine
from repro.serve import JoinService, ShardedJoinService

#: Every deterministic JoinResult statistic (timings excluded).
STAT_FIELDS = (
    "num_points",
    "num_pairs",
    "num_true_hit_pairs",
    "num_candidate_pairs",
    "num_pip_tests",
    "solely_true_hits",
)


def pair_set(result):
    return set(zip(result.pair_points.tolist(), result.pair_polygons.tolist()))


@pytest.fixture(scope="module")
def built(overlap_grid_polygons=None):
    from repro.geo.polygon import regular_polygon

    polygons = [
        regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]
    index = PolygonIndex.build(polygons, precision_meters=30.0)
    generator = np.random.default_rng(8)
    lngs = generator.uniform(-74.03, -73.93, 25_000)
    lats = generator.uniform(40.67, 40.77, 25_000)
    ids = cell_ids_from_lat_lng_arrays(lats, lngs)
    brute = np.vstack([contains_points(p, lngs, lats) for p in polygons])
    return index, lngs, lats, ids, brute


class TestInputLengths:
    """Regression: ``join(np.array([40.7, 40.8]), np.array([-74.0]))``
    broadcast to a 2-point result, and ``cell_ids`` of any length passed."""

    @pytest.fixture(scope="class", params=["PolygonIndex", "DynamicPolygonIndex"])
    def joinable(self, request, built):
        index = built[0]
        if request.param == "PolygonIndex":
            return index
        return DynamicPolygonIndex.build(
            list(index.polygons), precision_meters=30.0
        )

    @pytest.mark.parametrize("exact", [False, True])
    def test_mismatched_lat_lng_shapes_raise(self, joinable, exact):
        with pytest.raises(ValueError, match="same shape"):
            joinable.join(np.array([40.7, 40.8]), np.array([-74.0]), exact=exact)

    @pytest.mark.parametrize("num_ids", [0, 1, 3])
    def test_wrong_number_of_cell_ids_raises(self, joinable, num_ids):
        lats, lngs = np.array([40.7, 40.8]), np.array([-74.0, -73.99])
        ids = cell_ids_from_lat_lng_arrays(np.full(num_ids, 40.7), np.full(num_ids, -74.0))
        with pytest.raises(ValueError, match="one id per point"):
            joinable.join(lats, lngs, cell_ids=ids)
        assert joinable.join(lats, lngs).num_points == 2

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("with_ids", [False, True])
    @pytest.mark.parametrize("num_lngs", [10, 40])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_lngs_of_another_length_raise_with_and_without_ids(
        self, joinable, built, threads, num_lngs, with_ids, exact
    ):
        """Regression: with ``cell_ids=`` given nobody compared ``lats``
        with ``lngs`` — a shorter ``lngs`` died with ``IndexError`` inside
        the refinement kernel, a longer one was silently accepted."""
        _, lngs, lats, ids, _ = built
        with pytest.raises(ValueError, match="same shape"):
            joinable.join(
                lats[:25],
                lngs[:num_lngs],
                exact=exact,
                cell_ids=ids[:25] if with_ids else None,
                num_threads=threads,
            )


    @pytest.mark.parametrize(
        "case", ["2d_lats_lngs", "2d_lats", "2d_lngs", "2d_cell_ids", "0d_scalars"]
    )
    @pytest.mark.parametrize("door", ["PolygonIndex", "JoinService", "ShardedJoinService"])
    def test_non_1d_batches_raise_naming_the_shapes(self, built, door, case):
        """Regression: only lengths were compared, so a ``(50, 100)`` batch
        failed inside the probe with a different error per door, and a 0-d
        scalar raised ``TypeError`` from ``len()``."""
        index, lngs, lats, ids, _ = built
        line, grid = slice(0, 50), (50, 100)
        bad_lats, bad_lngs, cell_ids, shape = {  # a shape the message names
            "2d_lats_lngs": (lats[:5000].reshape(grid), lngs[:5000].reshape(grid), None, "(50, 100)"),
            "2d_lats": (lats[:5000].reshape(grid), lngs[line], None, "(50, 100)"),
            "2d_lngs": (lats[line], lngs[:5000].reshape(grid), None, "(50, 100)"),
            "2d_cell_ids": (lats[line], lngs[line], ids[:5000].reshape(grid), "(50, 100)"),
            "0d_scalars": (lats[0], lngs[0], None, "()"),
        }[case]
        with contextlib.ExitStack() as stack:
            if door == "PolygonIndex":
                join = index.join
            elif door == "JoinService":
                join = stack.enter_context(JoinService(index)).join
            else:
                join = stack.enter_context(
                    ShardedJoinService(index, num_shards=2, backend="inline")
                ).join
            with pytest.raises(ValueError, match="1-D|one id per point") as info:
                join(bad_lats, bad_lngs, cell_ids=cell_ids)
            assert shape in str(info.value)
            assert join(lats[line], lngs[line], cell_ids=ids[line]).num_points == 50


class TestNonFiniteCoordinates:
    """Regression: a NaN or infinite coordinate made every join door warn
    (``invalid value encountered in cast`` / ``in cos``) while computing
    its cell id.  Such a point joins nothing, silently, at every door."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "bad_lat, bad_lng",
        [(np.nan, -73.95), (40.7, np.inf), (-np.inf, -73.95)],
        ids=["nan_lat", "inf_lng", "minus_inf_lat"],
    )
    @pytest.mark.parametrize("door", ["PolygonIndex", "JoinService", "ShardedJoinService"])
    def test_joins_nothing_and_does_not_warn(self, built, door, bad_lat, bad_lng, exact):
        index, lngs, lats, _, _ = built
        lats, lngs = lats[:300], lngs[:300]
        bad_lats = np.insert(lats, 150, bad_lat)
        bad_lngs = np.insert(lngs, 150, bad_lng)
        with contextlib.ExitStack() as stack:
            if door == "PolygonIndex":
                join = index.join
            elif door == "JoinService":
                join = stack.enter_context(JoinService(index)).join
            else:
                join = stack.enter_context(
                    ShardedJoinService(index, num_shards=2, backend="inline")
                ).join
            finite = join(lats, lngs, exact=exact)
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                result = join(bad_lats, bad_lngs, exact=exact)
        assert result.num_points == finite.num_points + 1
        assert result.num_pairs == finite.num_pairs > 0
        assert result.num_true_hit_pairs == finite.num_true_hit_pairs

    @pytest.mark.parametrize("exact", [False, True])
    def test_warm_service_serves_them_from_hits(self, built, exact):
        """The hot-cell table keys a point by its bit patterns: a second
        join of the same non-finite batch is served from hits, silently,
        and equals the first.  (A table far larger than the batch, so
        that no key loses both its slots to the batch's other keys.)"""
        index, lngs, lats, _, _ = built
        bad_lats = np.concatenate([lats[:300], [np.nan, 40.7, -np.inf, np.nan]])
        bad_lngs = np.concatenate([lngs[:300], [-73.95, np.inf, -73.95, np.nan]])
        with JoinService(index, cache_cells=1 << 16) as service:
            first = service.join(bad_lats, bad_lngs, exact=exact, materialize=True)
            before = service.cache().stats()
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                second = service.join(bad_lats, bad_lngs, exact=exact, materialize=True)
            after = service.cache().stats()
        assert after.hits - before.hits == len(bad_lats)
        assert after.misses == before.misses
        assert np.array_equal(second.counts, first.counts)
        assert second.num_pairs == first.num_pairs > 0
        assert second.num_true_hit_pairs == first.num_true_hit_pairs
        assert second.num_pip_tests == first.num_pip_tests
        assert np.array_equal(second.pair_points, first.pair_points)
        assert np.array_equal(second.pair_polygons, first.pair_polygons)


class TestDecodeEntries:
    def test_single_ref(self):
        table = LookupTable()
        entry = table.encode((PolygonRef(5, True),))
        points, pids, is_true = decode_entries(
            np.asarray([entry, 0], dtype=np.uint64), table
        )
        assert points.tolist() == [0]
        assert pids.tolist() == [5]
        assert is_true.tolist() == [True]

    def test_two_refs(self):
        table = LookupTable()
        entry = table.encode((PolygonRef(5, True), PolygonRef(9, False)))
        points, pids, is_true = decode_entries(np.asarray([entry], dtype=np.uint64), table)
        assert points.tolist() == [0, 0]
        assert sorted(pids.tolist()) == [5, 9]
        assert sorted(is_true.tolist()) == [False, True]

    def test_offset_refs(self):
        table = LookupTable()
        refs = (PolygonRef(1, True), PolygonRef(2, False), PolygonRef(3, False))
        entry = table.encode(refs)
        points, pids, is_true = decode_entries(
            np.asarray([0, entry, entry], dtype=np.uint64), table
        )
        assert points.tolist() == [1, 1, 1, 2, 2, 2]
        assert pids[:3].tolist() == [1, 2, 3]
        assert is_true[:3].tolist() == [True, False, False]

    def test_all_misses(self):
        points, pids, is_true = decode_entries(
            np.zeros(5, dtype=np.uint64), LookupTable()
        )
        assert len(points) == len(pids) == len(is_true) == 0

    def test_large_polygon_ids(self):
        table = LookupTable()
        big = (1 << 30) - 1
        entry = table.encode((PolygonRef(big, False), PolygonRef(big - 1, True)))
        _, pids, _ = decode_entries(np.asarray([entry], dtype=np.uint64), table)
        assert sorted(pids.tolist()) == [big - 1, big]


def reference_decode(entries, lookup_table):
    """The per-offset loop ``decode_entries`` used to run, on ``decode_offset``."""
    points, pids, flags = [], [], []

    def emit(slot, ref):
        points.append(slot)
        pids.append(ref.polygon_id)
        flags.append(ref.interior)

    tags = [int(entry) & 3 for entry in entries]
    for tag in (TAG_ONE_REF, TAG_TWO_REFS):
        for slot, entry in enumerate(entries):
            if tags[slot] == tag:
                for ref in lookup_table.decode_entry(int(entry)):
                    emit(slot, ref)
    offsets = [int(entry) >> 2 for entry in entries]
    for offset in sorted({o for o, tag in zip(offsets, tags) if tag == TAG_OFFSET}):
        refs = lookup_table.decode_offset(offset)
        for slot in range(len(entries)):
            if tags[slot] == TAG_OFFSET and offsets[slot] == offset:
                for ref in refs:
                    emit(slot, ref)
    return (
        np.asarray(points, dtype=np.int64),
        np.asarray(pids, dtype=np.int64),
        np.asarray(flags, dtype=bool),
    )


def assert_decodes_like_reference(entries, table):
    entries = np.asarray(entries, dtype=np.uint64)
    expected = reference_decode(entries, table)
    for lookup_table in (table, LookupTable.attach(table.array)):
        got = decode_entries(entries, lookup_table)
        for got_part, expected_part in zip(got, expected):
            assert got_part.dtype == expected_part.dtype
            assert np.array_equal(got_part, expected_part)


def entry_batches():
    """A table plus a batch mixing sentinel, one-ref, two-ref and offset
    entries, drawn from random reference sets."""
    ref = st.builds(PolygonRef, st.integers(0, 40), st.booleans())
    ref_set = st.lists(ref, max_size=6, unique_by=lambda r: r.polygon_id)

    @st.composite
    def batches(draw):
        table = LookupTable()
        pool = [
            table.encode(tuple(sorted(refs, key=lambda r: r.polygon_id)))
            if refs
            else 0
            for refs in draw(st.lists(ref_set, min_size=1, max_size=12))
        ]
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))
        return table, np.asarray([pool[i] for i in picks], dtype=np.uint64)

    return batches()


class TestExpensiveRows:
    @given(batch=entry_batches())
    @settings(max_examples=60, deadline=None)
    def test_equals_any_candidate_among_the_decoded_pairs(self, batch):
        """A row is expensive exactly when ``decode_entries`` yields a
        candidate pair for its entry, as the tag-bit classifier it
        replaced (``oracles.expensive_entries``) says too."""
        table, entries = batch
        points, _, is_true = decode_entries(entries, table)
        expected = np.zeros(len(entries), dtype=bool)
        expected[points[~is_true]] = True
        for lookup_table in (table, LookupTable.attach(table.array)):
            assert np.array_equal(oracles.expensive_entries(entries, lookup_table), expected)
            got = RowTable.decode(entries, lookup_table).expensive
            assert got.dtype == bool
            assert np.array_equal(got, expected)


class TestDecodeParity:
    """The loop-free offset decode returns the reference's arrays *in order*."""

    @pytest.fixture(scope="class")
    def synthetic(self):
        table = LookupTable()
        ref_sets = [
            # offset 0; true and candidate ids interleave
            (PolygonRef(1, True), PolygonRef(2, False), PolygonRef(5, True),
             PolygonRef(7, False), PolygonRef(9, True)),
            # empty candidate half
            (PolygonRef(3, True), PolygonRef(4, True), PolygonRef(6, True)),
            # empty true half
            (PolygonRef(0, False), PolygonRef(8, False), PolygonRef(11, False)),
            # every candidate id below every true id
            (PolygonRef(2, False), PolygonRef(3, False), PolygonRef(10, True),
             PolygonRef(12, True)),
            (PolygonRef(1, False), PolygonRef(2, True), PolygonRef(3, False)),
        ]
        offset_entries = [table.encode(refs) for refs in ref_sets]
        assert offset_entries[0] == TAG_OFFSET  # the list at offset 0
        inline_entries = [
            0,
            table.encode((PolygonRef(4, True),)),
            table.encode((PolygonRef(4, False),)),
            table.encode((PolygonRef(6, False), PolygonRef(9, True))),
        ]
        return table, offset_entries, inline_entries

    def test_mixed_batch(self, synthetic):
        table, offset_entries, inline_entries = synthetic
        pool = np.asarray(offset_entries + inline_entries, dtype=np.uint64)
        generator = np.random.default_rng(3)
        entries = pool[generator.integers(0, len(pool), 500)]
        assert_decodes_like_reference(entries, table)

    def test_all_offset_batch(self, synthetic):
        table, offset_entries, _ = synthetic
        # Descending offsets, each repeated at non-adjacent points.
        entries = (offset_entries[::-1] * 3) + offset_entries[:1]
        assert_decodes_like_reference(entries, table)

    def test_no_offset_batch(self, synthetic):
        table, _, inline_entries = synthetic
        assert_decodes_like_reference(inline_entries * 4, table)
        assert_decodes_like_reference([], table)

    def test_dense_overlap_grid(self):
        from repro.geo.polygon import regular_polygon

        # The overlap grid with fatter 16-gons: up to four polygons meet,
        # so the index interns ~100 distinct >= 3-reference lists.
        polygons = [
            regular_polygon((-74.0 + gx * 0.02, 40.70 + gy * 0.02), 0.016, 16)
            for gx in range(3)
            for gy in range(3)
        ]
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        generator = np.random.default_rng(8)
        lngs = generator.uniform(-74.03, -73.93, 6_000)
        lats = generator.uniform(40.67, 40.77, 6_000)
        entries = index.store.probe(cell_ids_from_lat_lng_arrays(lats, lngs))
        offset_tagged = (entries & np.uint64(3)) == np.uint64(TAG_OFFSET)
        distinct_lists = np.unique(entries[offset_tagged])
        assert len(distinct_lists) >= 20
        assert_decodes_like_reference(entries, index.store.lookup_table)


class TestAccurateJoin:
    def test_matches_brute_force(self, built):
        index, lngs, lats, ids, brute = built
        result = accurate_join(index.store, ids, index.polygons, lngs, lats)
        assert (result.counts == brute.sum(axis=1)).all()

    def test_materialized_pairs_match(self, built):
        index, lngs, lats, ids, brute = built
        result = accurate_join(
            index.store,
            ids,
            index.polygons,
            lngs,
            lats,
            materialize=True,
        )
        got = np.zeros_like(brute)
        got[result.pair_polygons, result.pair_points] = True
        assert (got == brute).all()

    def test_pip_accounting(self, built):
        index, lngs, lats, ids, _ = built
        result = accurate_join(index.store, ids, index.polygons, lngs, lats)
        assert result.num_pip_tests == result.num_candidate_pairs
        assert 0 <= result.solely_true_hits <= result.num_points
        assert result.sth_rate == result.solely_true_hits / result.num_points

    def test_empty_batch(self, built):
        index, lngs, lats, _, _ = built
        result = accurate_join(
            index.store,
            np.zeros(0, dtype=np.uint64),
            index.polygons,
            lngs[:0],
            lats[:0],
        )
        assert result.num_points == 0
        assert result.counts.sum() == 0


class TestApproximateJoin:
    def test_superset_of_exact(self, built):
        """Approximate results contain every true pair (no false negatives)."""
        index, lngs, lats, ids, brute = built
        result = approximate_join(
            index.store, ids, len(index.polygons), materialize=True
        )
        got = np.zeros_like(brute)
        got[result.pair_polygons, result.pair_points] = True
        assert not np.any(brute & ~got)

    def test_never_runs_pip(self, built):
        index, lngs, lats, ids, _ = built
        result = approximate_join(index.store, ids, len(index.polygons))
        assert result.num_pip_tests == 0
        assert result.solely_true_hits == result.num_points

    def test_counts_at_least_exact(self, built):
        index, lngs, lats, ids, brute = built
        result = approximate_join(index.store, ids, len(index.polygons))
        assert (result.counts >= brute.sum(axis=1)).all()


class TestParallelJoin:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_approx_counts_match_serial(self, built, threads):
        index, lngs, lats, ids, _ = built
        serial = approximate_join(index.store, ids, len(index.polygons))
        parallel = parallel_count_join(index.store, ids, len(index.polygons), threads)
        assert (serial.counts == parallel.counts).all()
        assert serial.num_pairs == parallel.num_pairs

    def test_exact_counts_match_serial(self, built):
        index, lngs, lats, ids, brute = built
        parallel = parallel_count_join(
            index.store,
            ids,
            len(index.polygons),
            num_threads=2,
            polygons=index.polygons,
            lngs=lngs,
            lats=lats,
        )
        assert (parallel.counts == brute.sum(axis=1)).all()

    def test_small_batches(self, built):
        index, lngs, lats, ids, _ = built
        serial = approximate_join(index.store, ids[:100], len(index.polygons))
        parallel = parallel_count_join(
            index.store,
            ids[:100],
            len(index.polygons),
            num_threads=4,
            batch_size=7,
        )
        assert (serial.counts == parallel.counts).all()

    @given(
        num_points=st.integers(0, 4000),
        num_threads=st.integers(1, 4),
        batch_size=st.integers(1, 700),
    )
    @settings(max_examples=15, deadline=None)
    def test_exact_matches_serial_on_every_stat_field(
        self, built, num_points, num_threads, batch_size
    ):
        """Regression: the merge used to drop num_true_hit_pairs,
        num_candidate_pairs, and refine_seconds entirely."""
        index, lngs, lats, ids, _ = built
        serial = accurate_join(
            index.store, ids[:num_points],
            index.polygons, lngs[:num_points], lats[:num_points],
        )
        parallel = parallel_count_join(
            index.store,
            ids[:num_points],
            len(index.polygons),
            num_threads,
            polygons=index.polygons,
            lngs=lngs[:num_points],
            lats=lats[:num_points],
            batch_size=batch_size,
        )
        assert (serial.counts == parallel.counts).all()
        for name in STAT_FIELDS:
            assert getattr(parallel, name) == getattr(serial, name), name
        assert parallel.sth_rate == serial.sth_rate
        # Wall time is fully apportioned between the two phases, and the
        # refinement phase is no longer reported as free when it ran.
        assert parallel.probe_seconds >= 0.0
        assert parallel.refine_seconds >= 0.0
        if parallel.num_pip_tests > 0 and serial.refine_seconds > 0.0:
            assert parallel.refine_seconds > 0.0

    @given(
        num_points=st.integers(0, 4000),
        num_threads=st.integers(1, 4),
        batch_size=st.integers(1, 700),
    )
    @settings(max_examples=10, deadline=None)
    def test_approx_matches_serial_on_every_stat_field(
        self, built, num_points, num_threads, batch_size
    ):
        index, lngs, lats, ids, _ = built
        serial = approximate_join(index.store, ids[:num_points], len(index.polygons))
        parallel = parallel_count_join(
            index.store,
            ids[:num_points],
            len(index.polygons),
            num_threads,
            batch_size=batch_size,
        )
        assert (serial.counts == parallel.counts).all()
        for name in STAT_FIELDS:
            assert getattr(parallel, name) == getattr(serial, name), name

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_materialized_pairs_match_serial(self, built, threads, exact):
        """Regression: the threaded join dropped ``materialize`` — counts
        and ``num_pairs`` were right, the pair arrays were ``None``."""
        index, lngs, lats, ids, _ = built
        refine = dict(polygons=index.polygons, lngs=lngs, lats=lats) if exact else {}
        parallel = parallel_count_join(
            index.store, ids, len(index.polygons), threads,
            batch_size=7_001,  # splits the 25 000 points unevenly
            materialize=True, **refine,
        )
        serial = index.join(lats, lngs, exact=exact, materialize=True)
        assert len(parallel.pair_points) == parallel.num_pairs == serial.num_pairs
        assert pair_set(parallel) == pair_set(serial)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_index_join_materializes_at_every_thread_count(self, built, threads):
        from repro.core.dynamic import DynamicPolygonIndex

        index, lngs, lats, _, _ = built
        serial = index.join(lats, lngs, exact=True, materialize=True)
        dynamic = DynamicPolygonIndex.build(
            list(index.polygons), precision_meters=30.0, compact_threshold=None
        )
        for joinable in (index, dynamic):
            threaded = joinable.join(
                lats, lngs, exact=True, materialize=True, num_threads=threads
            )
            assert pair_set(threaded) == pair_set(serial)


class TestMapMorsels:
    def test_covers_every_range_in_order(self):
        ranges = map_morsels(95, lambda lo, hi: (lo, hi), num_threads=4, morsel_size=10)
        assert ranges[0] == (0, 10)
        assert ranges[-1] == (90, 95)
        assert sum(hi - lo for lo, hi in ranges) == 95

    def test_single_morsel_runs_inline(self):
        calls = []

        def work(lo, hi):
            calls.append((lo, hi))

        assert map_morsels(40, work, num_threads=2, morsel_size=100) == [None]
        assert calls == [(0, 40)]

    def test_empty_input(self):
        assert map_morsels(0, lambda lo, hi: 1, num_threads=2, morsel_size=10) == []

    def test_work_actually_runs_on_multiple_threads(self):
        seen = set()
        barrier = threading.Barrier(2, timeout=10)

        def work(lo, hi):
            barrier.wait()  # both threads must be inside work at once
            seen.add(threading.get_ident())

        map_morsels(10, work, num_threads=2, morsel_size=5)
        assert len(seen) == 2


class TestMapMorselsFailFast:
    def test_failing_worker_stops_remaining_morsels(self):
        """Workers must stop claiming morsels once one of them fails."""
        calls: list[int] = []
        calls_lock = threading.Lock()

        def work(lo, hi):
            with calls_lock:
                calls.append(lo)
            if lo == 0:
                raise ValueError("boom at morsel 0")
            time.sleep(0.01)
            return hi

        with pytest.raises(ValueError, match="boom at morsel 0"):
            map_morsels(200, work, num_threads=2, morsel_size=10)  # 20 morsels
        # Without fail-fast the surviving worker grinds through all 20
        # morsels; with the shared flag it stops after at most the ones
        # it had already claimed when the failure landed.
        assert len(calls) < 20
        assert len(calls) <= 5

    def test_error_on_single_inline_morsel_still_raises(self):
        def work(lo, hi):
            raise RuntimeError("inline failure")

        with pytest.raises(RuntimeError, match="inline failure"):
            map_morsels(50, work, num_threads=2, morsel_size=100)

    def test_call_after_a_failure_succeeds(self):
        with pytest.raises(ValueError):
            map_morsels(
                20, lambda lo, hi: (_ for _ in ()).throw(ValueError()),
                num_threads=2, morsel_size=5,
            )
        assert map_morsels(20, lambda lo, hi: hi - lo, num_threads=2, morsel_size=5) == [5, 5, 5, 5]


class TestJoinDriver:
    """One read path: whatever the schedule, the driver returns the
    single-chunk call's statistics and pair set."""

    @pytest.fixture(scope="class")
    def with_delta(self, built):
        """A dynamic index serving through a non-empty delta overlay."""
        from repro.geo.polygon import regular_polygon

        index = built[0]
        dynamic = DynamicPolygonIndex.build(
            list(index.polygons), precision_meters=30.0, compact_threshold=None
        )
        dynamic.insert(regular_polygon((-73.97, 40.73), 0.012, 12))
        dynamic.delete(4)
        assert dynamic.delta_size == 2
        return dynamic

    @staticmethod
    def assert_same(result, single, materialize):
        assert np.array_equal(result.counts, single.counts)
        for name in STAT_FIELDS:
            assert getattr(result, name) == getattr(single, name), name
        if materialize:
            assert len(result.pair_points) == result.num_pairs
            assert sorted(pair_set(result)) == sorted(pair_set(single))
        else:
            assert result.pair_points is None and result.pair_polygons is None

    @pytest.mark.parametrize("materialize", [False, True])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("pool", [None, (2, 7), (3, 7_001)])
    @pytest.mark.parametrize("which", ["static", "delta"])
    def test_every_schedule_equals_the_single_chunk_call(
        self, built, with_delta, which, pool, exact, materialize
    ):
        _, lngs, lats, ids, _ = built
        view = (built[0] if which == "static" else with_delta).probe_view()
        num_points = 1_500 if pool == (2, 7) else len(ids)
        lats, lngs, ids = lats[:num_points], lngs[:num_points], ids[:num_points]

        def run(num_threads=1, morsel_size=1 << 16):
            return join_batch(
                view.store, ids, view.polygons, lngs, lats,
                exact=exact, materialize=materialize, engine=view.refiner,
                num_threads=num_threads, morsel_size=morsel_size,
            )

        single = run()
        if pool is None:
            result = view.join(
                lats, lngs, exact=exact, materialize=materialize, cell_ids=ids
            )
        else:
            result = run(*pool)
        self.assert_same(result, single, materialize)

    @pytest.mark.parametrize("materialize", [False, True])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("which", ["static", "delta"])
    def test_service_equals_the_single_chunk_call(
        self, built, with_delta, which, exact, materialize
    ):
        _, lngs, lats, _, _ = built
        index = built[0] if which == "static" else with_delta
        single = index.join(lats, lngs, exact=exact, materialize=materialize)
        with JoinService(index) as service:
            served = service.join(
                lats, lngs, exact=exact, materialize=materialize
            )
        self.assert_same(served, single, materialize)

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"num_threads": 0}, "num_threads must be >= 1, got 0"),
            ({"num_threads": 2, "morsel_size": 0}, "morsel_size must be >= 1, got 0"),
        ],
        ids=["no_threads", "empty_morsels"],
    )
    def test_rejects_a_schedule_below_one(self, built, schedule, message):
        """Checked before the schedule is chosen: a batch that would take
        the straight call is refused too."""
        _, lngs, lats, ids, _ = built
        view = built[0].probe_view()
        with pytest.raises(ValueError, match=message):
            join_batch(
                view.store, ids[:10], view.polygons,
                lngs[:10], lats[:10], exact=True, engine=view.refiner,
                **schedule,
            )


class TestMergeJoinResults:
    """The one fan-out merge: split anywhere, merge, get the unsplit join."""

    @given(
        num_points=st.integers(0, 3000),
        cuts=st.lists(st.integers(0, 3000), max_size=6),
        exact=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_remap_merge_equals_unsplit_join(
        self, built, num_points, cuts, exact
    ):
        index, lngs, lats, ids, _ = built

        def join(lo, hi):
            if exact:
                return accurate_join(
                    index.store, ids[lo:hi], index.polygons,
                    lngs[lo:hi], lats[lo:hi], materialize=True,
                )
            return approximate_join(
                index.store, ids[lo:hi],
                len(index.polygons), materialize=True,
            )

        whole = join(0, num_points)
        edges = [0, *sorted(min(cut, num_points) for cut in cuts), num_points]
        parts = []
        for lo, hi in zip(edges, edges[1:]):  # empty pieces included
            part = join(lo, hi)
            part.pair_points = part.pair_points + lo
            parts.append(part)
        merged = merge_join_results(
            parts,
            num_points=num_points,
            num_polygons=len(index.polygons),
            wall_seconds=2.5,
            materialize=True,
        )
        assert np.array_equal(merged.counts, whole.counts)
        for name in STAT_FIELDS:
            assert getattr(merged, name) == getattr(whole, name), name
        assert pair_set(merged) == pair_set(whole)
        assert len(merged.pair_points) == merged.num_pairs
        assert merged.probe_seconds >= 0.0 and merged.refine_seconds >= 0.0
        assert merged.probe_seconds + merged.refine_seconds == pytest.approx(2.5)

    @pytest.mark.parametrize("materialize", [False, True])
    def test_zero_parts_give_the_all_zero_result(self, materialize):
        merged = merge_join_results(
            [], num_points=0, num_polygons=7, wall_seconds=0.25,
            materialize=materialize,
        )
        assert merged.counts.tolist() == [0] * 7
        for name in STAT_FIELDS:
            assert getattr(merged, name) == 0, name
        assert merged.probe_seconds + merged.refine_seconds == 0.25
        if materialize:
            assert merged.pair_points.tolist() == merged.pair_polygons.tolist() == []
        else:
            assert merged.pair_points is None and merged.pair_polygons is None


# ----------------------------------------------------------------------
# The by-row kernels against the per-point decode they replaced
# ----------------------------------------------------------------------

#: Sixteen level-12 cells under one level-10 cell near the row polygons.
_ROW_CELLS = [
    child
    for quarter in CellId.from_degrees(40.70, -74.00).parent(10).children()
    for child in quarter.children()
]
_ROW_POLYGONS = [
    regular_polygon((-74.01 + 0.01 * (pid % 3), 40.69 + 0.01 * (pid // 3)), 0.008, 12)
    for pid in range(9)
]
_ROW_REFS = st.lists(
    st.builds(PolygonRef, st.integers(0, 8), st.booleans()),
    min_size=1,
    max_size=5,  # one / two inlined references, and TAG_OFFSET rows
    unique_by=lambda ref: ref.polygon_id,
).map(lambda refs: tuple(sorted(refs)))


@st.composite
def row_batches(draw):
    """A trie over a random covering of some of the sixteen cells, and a
    batch of leaf ids drawn from all sixteen (so misses occur), with
    coordinates around the row polygons."""
    indexed = draw(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True))
    covering = oracles.covering_from_dict(
        {_ROW_CELLS[i].id: draw(_ROW_REFS) for i in indexed}
    )
    picks = draw(st.lists(st.integers(0, 15), max_size=80))
    generator = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    lows = np.asarray([_ROW_CELLS[i].range_min().id for i in picks], dtype=np.uint64)
    spans = np.asarray([_ROW_CELLS[i].range_max().id for i in picks], dtype=np.uint64) - lows
    steps = (generator.random(len(picks)) * (spans // np.uint64(2)).astype(float)).astype(np.uint64)
    cell_ids = lows + np.uint64(2) * np.minimum(steps, spans // np.uint64(2))
    lngs = generator.uniform(-74.02, -73.98, len(picks))
    lats = generator.uniform(40.68, 40.72, len(picks))
    return AdaptiveCellTrie(covering, 4), cell_ids, lngs, lats


class TestRowPath:
    """Counts per distinct row, pairs expanded only where needed: every
    statistic, the counts and the materialized pair set equal the
    per-point decode join (``oracles.decode_join``)."""

    @given(batch=row_batches())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_decode_join(self, batch):
        store, cell_ids, lngs, lats = batch
        engine = RefinementEngine(_ROW_POLYGONS)
        num_polygons = len(_ROW_POLYGONS)
        # The whole batch, a single point and the empty batch.
        for size in sorted({len(cell_ids), min(1, len(cell_ids)), 0}):
            ids, xs, ys = cell_ids[:size], lngs[:size], lats[:size]
            for exact in (False, True):
                refine = {"engine": engine, "lngs": xs, "lats": ys} if exact else {}
                counts, stats, pairs = oracles.decode_join(
                    store, ids, num_polygons, **refine
                )
                for num_threads in (1, 4):
                    for materialize in (False, True):
                        result = join_batch(
                            store, ids, _ROW_POLYGONS, xs, ys,
                            exact=exact, materialize=materialize, engine=engine,
                            num_threads=num_threads, morsel_size=7,
                        )
                        assert result.counts.dtype == np.int64
                        assert np.array_equal(result.counts, counts)
                        for name in STAT_FIELDS:
                            assert getattr(result, name) == stats[name], name
                        if materialize:
                            assert len(result.pair_points) == result.num_pairs
                            assert pair_set(result) == pairs

    def test_batches_hold_every_row_kind(self):
        """The row tables the hypothesis test draws hold one-ref, two-ref
        and offset rows (beside the miss row)."""
        covering = oracles.covering_from_dict(
            {
                _ROW_CELLS[0].id: (PolygonRef(1, True),),
                _ROW_CELLS[1].id: (PolygonRef(1, False), PolygonRef(2, True)),
                _ROW_CELLS[2].id: (PolygonRef(1, True), PolygonRef(2, False), PolygonRef(3, False)),
            }
        )
        store = AdaptiveCellTrie(covering, 4)
        tags = (store.rows.entries & np.uint64(3)).tolist()
        assert sorted(tags) == [0, TAG_ONE_REF, TAG_TWO_REFS, TAG_OFFSET]
        assert store.rows.sizes.tolist() == [0] + [
            {TAG_ONE_REF: 1, TAG_TWO_REFS: 2, TAG_OFFSET: 3}[tag] for tag in tags[1:]
        ]


class TestStoresProbeToRows:
    """Every store the kernels probe answers rows of its row table, and
    its tagged-entry ``probe`` is those rows' entries."""

    def test_probe_is_the_rows_entries(self, built):
        from repro.baselines.act_compressed import CompressedCellTrie
        from repro.baselines.btree import BTreeStore
        from repro.baselines.sorted_vector import SortedVectorStore
        from repro.core.dynamic import OverlayCellStore

        index, _, _, ids, _ = built
        covering = index.super_covering
        dynamic = DynamicPolygonIndex.build(
            list(index.polygons), precision_meters=30.0, compact_threshold=None
        )
        dynamic.insert(regular_polygon((-73.97, 40.73), 0.012, 12))
        dynamic.delete(4)
        stores = [
            index.store,
            dynamic.store,
            BTreeStore(covering),
            SortedVectorStore(covering),
            CompressedCellTrie(covering, 8),
        ]
        assert isinstance(dynamic.store, OverlayCellStore)

        def decoded(store):
            """``(point, polygon id, interior)`` triples of a probe."""
            parts = decode_entries(store.probe(ids), store.lookup_table)
            return set(zip(*(part.tolist() for part in parts)))

        for store in stores:
            rows = store.probe_rows(ids)
            assert rows.dtype == np.intp
            assert np.array_equal(store.probe(ids), store.rows.entries.take(rows))
        # The baselines index the same covering: the same references.
        for store in stores[2:]:
            assert decoded(store) == decoded(index.store)


class TestCountsDtype:
    """``counts`` is ``int64`` at every door, pairs or not, points or not."""

    @pytest.mark.parametrize("num_points", [0, 1, 500])
    @pytest.mark.parametrize("materialize", [False, True])
    @pytest.mark.parametrize("exact", [False, True])
    def test_every_door(self, built, exact, materialize, num_points):
        index, lngs, lats, _, _ = built
        lats, lngs = lats[:num_points], lngs[:num_points]
        results = [index.join(lats, lngs, exact=exact, materialize=materialize)]
        with JoinService(index) as service:
            results.append(service.join(lats, lngs, exact=exact, materialize=materialize))
        with ShardedJoinService(index, num_shards=2, backend="inline") as sharded:
            results.append(sharded.join(lats, lngs, exact=exact, materialize=materialize))
        for result in results:
            assert result.counts.dtype == np.int64
            assert result.counts.shape == (len(index.polygons),)
            assert np.array_equal(result.counts, results[0].counts)
