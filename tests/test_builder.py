"""Tests for the PolygonIndex facade."""

import ast
import dataclasses
import inspect
import pathlib
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.baselines import BTreeStore, CompressedCellTrie, SortedVectorStore
from repro.bench import measure
from repro.bench.workbench import STORE_FACTORIES
from repro.cells import CovererOptions
from repro.cells.coverer import batch_coverings
from repro.core import (
    AdaptiveCellTrie,
    DynamicPolygonIndex,
    OverlayCellStore,
    PolygonIndex,
    ProbeView,
    accurate_join,
    approximate_join,
    attach_index,
    builder,
    load_index,
    pack_index,
    save_index,
)
from repro.core.builder import cover_polygon, cover_polygons
from repro.core.joins import join_batch, parallel_count_join
from repro.geo.pip import contains_points
from repro.geo.polygon import regular_polygon

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def polygons():
    return [
        regular_polygon((-74.00, 40.70), 0.005, 12),
        regular_polygon((-73.98, 40.70), 0.005, 12),
        regular_polygon((-74.00, 40.72), 0.005, 12),
    ]


@pytest.fixture(scope="module")
def points():
    generator = np.random.default_rng(3)
    lngs = generator.uniform(-74.01, -73.97, 10_000)
    lats = generator.uniform(40.69, 40.73, 10_000)
    return lngs, lats


class TestBuild:
    def test_default_build(self, polygons):
        index = PolygonIndex.build(polygons)
        assert index.num_cells > 0
        assert index.precision_meters is None
        assert index.size_bytes > 0

    def test_precision_build(self, polygons):
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        assert index.precision_meters == 60.0

    def test_timings_populated(self, polygons):
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        timings = index.timings
        assert timings.individual_coverings_seconds > 0
        assert timings.super_covering_seconds > 0
        assert timings.refinement_seconds > 0
        assert timings.store_build_seconds > 0
        assert timings.total_seconds >= timings.refinement_seconds

    @pytest.mark.parametrize("factory", [SortedVectorStore, BTreeStore])
    def test_alternative_store_factory(self, polygons, points, factory):
        """A baseline store is built over the index's covering and joined
        through the kernel, beside the index — not as a mode of it."""
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        alt = accurate_join(
            factory(index.super_covering),
            index.cell_ids_for(lats, lngs),
            index.polygons,
            lngs,
            lats,
        )
        act = index.join(lats, lngs, exact=True)
        assert (act.counts == alt.counts).all()
        assert act.num_pairs == alt.num_pairs

    def test_non_act_store_rejected_at_the_door(self, polygons):
        """The one check that replaces the per-feature rejections
        (retrained, pack_index, save_index): an index over anything but
        an ACT cannot be constructed."""
        index = PolygonIndex.build(polygons)
        with pytest.raises(TypeError, match="AdaptiveCellTrie"):
            PolygonIndex(
                polygons,
                index.super_covering,
                SortedVectorStore(index.super_covering),
                timings=index.timings,
                precision_meters=None,
                training_report=None,
            )

    def test_fanout_bits_forwarded(self, polygons):
        index = PolygonIndex.build(polygons, fanout_bits=2)
        assert index.store.name == "ACT1"

    def test_training_order_is_gone(self, polygons):
        """A build trains in arrival order, as the paper does, and
        ``retrained`` hottest-first: neither takes a schedule."""
        with pytest.raises(TypeError, match="training_order"):
            PolygonIndex.build(polygons, training_order="hot")
        index = PolygonIndex.build(polygons)
        ids = index.cell_ids_for(np.array([40.70]), np.array([-74.0]))
        with pytest.raises(TypeError, match="order"):
            index.retrained(ids, order="arrival")


def _built(polygons):
    return PolygonIndex.build(polygons, precision_meters=60.0)


def _attached(polygons):
    return attach_index(pack_index(_built(polygons)))


def _retrained(polygons):
    index = _built(polygons)
    lats, lngs = np.full(50, 40.70), np.linspace(-74.006, -73.994, 50)
    return index.retrained(index.cell_ids_for(lats, lngs))


def _compacted(polygons):
    dynamic = DynamicPolygonIndex.build(polygons, compact_threshold=None)
    dynamic.insert(regular_polygon((-73.98, 40.72), 0.005, 12))
    dynamic.delete(0)
    return dynamic.compact()


def _loaded(name):
    def door(polygons):
        loaded = load_index(DATA / name)
        return getattr(loaded, "base", loaded)

    return door


@pytest.mark.parametrize(
    "door",
    [
        _built,
        _attached,
        _loaded("index_v1.npz"),
        _loaded("index_v2.npz"),
        _loaded("index_v3.npy"),
        _retrained,
        _compacted,
    ],
    ids=["build", "attach_index", "load_v1", "load_v2", "load_v3", "retrained", "compact"],
)
def test_an_index_from_every_door_is_frozen(polygons, door):
    """No method changes what a PolygonIndex answers: its polygons are a
    tuple and it has no insert path (``DynamicPolygonIndex.insert`` is
    the one way to add a polygon)."""
    index = door(polygons)
    assert type(index) is PolygonIndex
    assert type(index.polygons) is tuple
    assert type(index.probe_view().polygons) is tuple
    assert not hasattr(index, "add_polygon")
    assert not hasattr(index, "lookup_table")  # the store holds it
    assert index.probe_view().lookup_table is index.store.lookup_table


class TestQueries:
    def test_join_exact_matches_brute(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        brute = np.array([contains_points(p, lngs, lats).sum() for p in polygons])
        result = index.join(lats, lngs, exact=True)
        assert (result.counts == brute).all()

    def test_join_with_precomputed_cell_ids(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        ids = index.cell_ids_for(lats, lngs)
        a = index.join(lats, lngs, exact=True)
        b = index.join(lats, lngs, exact=True, cell_ids=ids)
        assert (a.counts == b.counts).all()

    def test_join_multithreaded(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        serial = index.join(lats, lngs)
        parallel = index.join(lats, lngs, num_threads=2)
        assert (serial.counts == parallel.counts).all()

    @pytest.mark.parametrize("num_threads", [0, -3])
    def test_join_rejects_fewer_than_one_thread(self, polygons, points, num_threads):
        """Regression: ``num_threads < 1`` silently ran single-threaded."""
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        with pytest.raises(ValueError, match=f"num_threads must be >= 1, got {num_threads}"):
            index.join(lats, lngs, num_threads=num_threads)

    def test_containing_polygons(self, polygons):
        index = PolygonIndex.build(polygons)
        assert index.containing_polygons(40.70, -74.00) == [0]
        assert index.containing_polygons(40.70, -73.98) == [1]
        assert index.containing_polygons(40.75, -73.90) == []

    def test_describe(self, polygons):
        index = PolygonIndex.build(polygons, precision_meters=60.0)
        info = index.describe()
        assert info["num_polygons"] == 3
        assert info["precision_meters"] == 60.0
        assert info["store"]["variant"] == "ACT4"


def _ids(coverings):
    return [
        ([cell.id for cell in covering], [cell.id for cell in interior])
        for covering, interior in coverings
    ]


class TestCoverMemo:
    """``cover_polygons`` keeps a polygon's last coverings on the object."""

    DEFAULT = (builder.DEFAULT_COVERING_OPTIONS, builder.DEFAULT_INTERIOR_OPTIONS)
    OTHER = (CovererOptions(max_cells=16, max_level=20), CovererOptions(max_cells=16))

    def _fresh(self, count=3):
        return [
            regular_polygon((-74.0 + 0.02 * k, 40.70), 0.005, 12) for k in range(count)
        ]

    def _uncached(self, polygons, options=DEFAULT):
        specs = [(options[0], False), (options[1], True)]
        return _ids(batch_coverings(polygons, specs))  # not through the spy

    def test_same_object_is_covered_once(self, covered):
        polygons = self._fresh()
        first = cover_polygons(polygons)
        second = cover_polygons(polygons)
        assert covered == [polygons]
        assert _ids(first) == _ids(second) == self._uncached(self._fresh())

    def test_hits_and_misses_interleave_in_order(self, covered):
        a, b, c, d = self._fresh(4)
        cover_polygons([b, d])
        assert _ids(cover_polygons([a, b, c, d])) == self._uncached(self._fresh(4))
        assert covered == [[b, d], [a, c]]  # the misses, in one batched call

    def test_other_options_recover_and_replace(self, covered):
        (polygon,) = self._fresh(1)
        default = _ids([cover_polygon(polygon)])
        other = _ids([cover_polygon(polygon, *self.OTHER)])
        assert other == self._uncached(self._fresh(1), self.OTHER) != default
        assert polygon._cover_cache[:2] == self.OTHER
        cover_polygon(polygon, *self.OTHER)
        assert covered == [[polygon]] * 2
        assert _ids([cover_polygon(polygon)]) == default  # evicted: covered again
        assert covered == [[polygon]] * 3

    def test_equal_geometry_new_object_is_a_miss(self, covered):
        cover_polygons(self._fresh(1))
        cover_polygons(self._fresh(1))
        assert len(covered) == 2

    def test_pickle_carries_no_memo(self):
        (polygon,) = self._fresh(1)
        cover_polygon(polygon)
        assert polygon._cover_cache is not None
        assert pickle.loads(pickle.dumps(polygon))._cover_cache is None

    def test_returned_coverings_are_the_callers(self):
        (polygon,) = self._fresh(1)
        covering, interior = cover_polygon(polygon)
        expected = _ids([(covering, interior)])
        covering.clear()
        interior.reverse()
        assert _ids([cover_polygon(polygon)]) == expected
        with pytest.raises(ValueError):
            polygon._cover_cache[2][0] = 0  # the memo itself is read-only

    def test_racing_option_pairs_each_get_their_own_covering(self):
        """The memo is a benign race: threads covering one polygon under
        two option pairs keep replacing its entry, and every call still
        returns the covering of the options it asked for."""
        (polygon,) = self._fresh(1)
        expected = {
            options: self._uncached([polygon], options)
            for options in (self.DEFAULT, self.OTHER)
        }
        wrong: list[tuple] = []
        stop = threading.Event()

        def worker(options):
            while not stop.is_set():
                if _ids([cover_polygon(polygon, *options)]) != expected[options]:
                    wrong.append(options)

        threads = [
            threading.Thread(target=worker, args=(options,), daemon=True)
            for options in (self.DEFAULT, self.OTHER) * 3
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            stop.wait(0.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_build_counts_what_it_covered(self):
        polygons = self._fresh()
        assert PolygonIndex.build(polygons).timings.covered == 3
        assert PolygonIndex.build(polygons).timings.covered == 0
        assert PolygonIndex.build(polygons + self._fresh(1)).timings.covered == 1


class TestStoreOwnsItsLookupTable:
    """A store is the one holder of its lookup table: nothing passes a
    second handle along, so nothing can pass one that does not match."""

    def test_no_signature_takes_a_lookup_table(self):
        kernels = (approximate_join, accurate_join, join_batch, parallel_count_join)
        helpers = (measure.probe_throughput_mpts, measure.exact_throughput_mpts)
        stores = (AdaptiveCellTrie, CompressedCellTrie, BTreeStore, SortedVectorStore)
        for function in (*kernels, *helpers, *stores, PolygonIndex, *STORE_FACTORIES.values()):
            assert "lookup_table" not in inspect.signature(function).parameters, function
        assert "lookup_table" not in {field.name for field in dataclasses.fields(ProbeView)}
        # Across src/, only the snapshot attach takes one: there the
        # table is the blob's ``lut`` buffer, a format input.
        src = pathlib.Path(builder.__file__).parents[1]
        takers = [
            f"{path.relative_to(src).as_posix()}::{getattr(node, 'name', 'lambda')}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.Lambda))
            and "lookup_table" in {arg.arg for arg in (*node.args.args, *node.args.kwonlyargs)}
        ]
        assert takers == ["core/act.py::attach"]

    def test_old_call_shapes_fail_loudly(self, polygons, points):
        lngs, lats = points
        index = PolygonIndex.build(polygons)
        store, table, covering = index.store, index.store.lookup_table, index.super_covering
        ids, n = index.cell_ids_for(lats, lngs), len(polygons)
        for old_call in (
            # Positionally, the table used to land in ``timings``.
            lambda: PolygonIndex(polygons, covering, store, table, index.timings, None, None),
            lambda: approximate_join(store, table, ids, n),
            lambda: accurate_join(store, table, ids, polygons, lngs, lats),
            lambda: join_batch(store, table, ids, polygons, lngs, lats, exact=True),
            lambda: parallel_count_join(store, table, ids, n, 2),
            lambda: measure.probe_throughput_mpts(store, table, ids, n),
            lambda: measure.exact_throughput_mpts(store, table, ids, polygons, lngs, lats),
            lambda: SortedVectorStore(covering, table),
        ):
            with pytest.raises(TypeError):
                old_call()

    def test_a_view_reads_its_stores_table(self, polygons, tmp_path):
        """``decode_entries(view.store.probe(ids), view.lookup_table)``
        decodes against the store's own table, whichever door the view
        came through (``test_an_index_from_every_door_is_frozen`` checks
        the static doors of ``PolygonIndex``)."""
        index = PolygonIndex.build(polygons)
        save_index(index, tmp_path / "v4.npy")
        dynamic = DynamicPolygonIndex(index, compact_threshold=None)
        dynamic.insert(regular_polygon((-73.98, 40.72), 0.005, 12))
        assert isinstance(dynamic.store, OverlayCellStore)
        assert not hasattr(dynamic, "lookup_table")
        for source in (index, attach_index(pack_index(index)), load_index(tmp_path / "v4.npy"),
                       load_index(DATA / "index_v1.npz"), dynamic):
            view = source.probe_view()
            assert view.lookup_table is view.store.lookup_table
