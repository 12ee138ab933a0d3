"""The paper's qualitative claims, asserted at smoke scale.

How fast each structure is stays with the bench runners (``python -m
repro.bench``; checked-in runs under ``results/paper/``).  This file
checks the structural claims those timings rest on, deterministically, on
the e2e smoke's two layers — ``boroughs`` and a 12-polygon
``neighborhoods`` — with 20,000 taxi points, plus the one ordering the
serving design depends on (ACT4 outruns LB), with a wide margin.
"""

import numpy as np
import pytest

from repro.baselines import BTreeStore, CompressedCellTrie, SortedVectorStore
from repro.cells import cell_ids_from_lat_lng_arrays
from repro.core import PolygonIndex, solely_true_hit_rate
from repro.core.joins import approximate_join
from repro.datasets import polygon_dataset, taxi_points
from repro.geo.distance import polygon_distance_meters
from repro.geo.pip import contains_points
from repro.util.timing import Timer

#: Precision bounds in meters, coarse to fine (Table 1's sweep).
PRECISIONS = (60.0, 15.0)


@pytest.fixture(scope="module", params=[None, 12], ids=["boroughs", "neighborhoods"])
def polygons(request):
    if request.param is None:
        return polygon_dataset("boroughs")
    return polygon_dataset("neighborhoods", num_polygons=request.param)


@pytest.fixture(scope="module")
def taxi():
    lats, lngs = taxi_points(20_000, seed=5)
    return lats, lngs, cell_ids_from_lat_lng_arrays(lats, lngs)


@pytest.fixture(scope="module")
def indexes(polygons):
    return {p: PolygonIndex.build(polygons, precision_meters=p) for p in PRECISIONS}


class TestPrecisionBound:
    """Section 3.2 and Table 1: the approximate join's guarantee."""

    def test_finer_bound_more_cells_fewer_candidates(self, indexes, taxi):
        lats, lngs, ids = taxi
        coarse, fine = (indexes[p] for p in PRECISIONS)
        assert fine.num_cells > coarse.num_cells
        assert (
            fine.join(lats, lngs, cell_ids=ids).num_candidate_pairs
            < coarse.join(lats, lngs, cell_ids=ids).num_candidate_pairs
        )

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_no_false_negatives_and_false_positives_within_bound(
        self, polygons, indexes, taxi, precision
    ):
        lats, lngs, ids = taxi
        inside = np.vstack([contains_points(p, lngs, lats) for p in polygons])
        result = indexes[precision].join(lats, lngs, cell_ids=ids, materialize=True)
        joined = np.zeros_like(inside)
        joined[result.pair_polygons, result.pair_points] = True
        assert not (inside & ~joined).any()
        false_pids, false_points = np.nonzero(joined & ~inside)
        assert len(false_points) > 0
        for pid, point in zip(false_pids, false_points):
            assert polygon_distance_meters(polygons[pid], lngs[point], lats[point]) <= precision

    def test_super_covering_cells_are_disjoint(self, indexes):
        for index in indexes.values():
            index.super_covering.check_disjoint()


def test_training_raises_the_sth_rate_on_its_stream(polygons, taxi):
    """Section 3.3.1 and Table 7."""
    _, _, ids = taxi
    untrained = PolygonIndex.build(polygons).super_covering
    trained = PolygonIndex.build(polygons, training_cell_ids=ids).super_covering
    trained.check_disjoint()
    assert solely_true_hit_rate(trained, ids) > solely_true_hit_rate(untrained, ids)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_act_touches_fewer_nodes_than_gbt_and_lb(indexes, taxi, precision):
    """Table 5's structural counters (its timings are not asserted)."""
    covering = indexes[precision].super_covering
    _, stats = indexes[precision].store.probe_instrumented(taxi[2])
    assert stats.avg_depth < BTreeStore(covering).node_accesses_per_probe()
    assert stats.avg_depth < SortedVectorStore(covering).comparisons_per_probe()


@pytest.mark.parametrize("precision", PRECISIONS)
def test_act4_approximate_join_outruns_lb(indexes, taxi, precision):
    """Figure 7 (left): the serving store, ACT4, beats LB (a binary
    search over the sorted cell ids) on the approximate join, by at least
    1.1x, best of 3 runs each."""
    index, ids = indexes[precision], taxi[2]
    lb = SortedVectorStore(index.super_covering)

    def best_seconds(store):
        runs = []
        for _ in range(3):
            with Timer() as timer:
                result = approximate_join(store, ids, index.num_polygons)
            runs.append(timer.seconds)
        return min(runs), result

    act_seconds, act = best_seconds(index.store)
    lb_seconds, baseline = best_seconds(lb)
    assert np.array_equal(act.counts, baseline.counts)
    assert lb_seconds / act_seconds >= 1.1, (act_seconds, lb_seconds)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_node4_saves_a_negligible_share_of_bytes(indexes, precision):
    """Section 3.1: ART's Node4 "saves only a negligible amount of space"."""
    act4 = indexes[precision].store
    node4 = CompressedCellTrie(indexes[precision].super_covering, 8)
    assert act4.name == "ACT4" and node4.num_node4 > 0
    assert 0.0 < 1.0 - node4.size_bytes / act4.size_bytes < 0.05
