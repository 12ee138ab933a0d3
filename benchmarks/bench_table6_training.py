"""Table 6 kernels: the training pass and the trained accurate join."""

import pytest

from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.act import AdaptiveCellTrie
from repro.core.joins import accurate_join
from repro.core.lookup_table import LookupTable
from repro.core.training import train_super_covering
from repro.datasets import taxi_points


@pytest.fixture(scope="module")
def training_ids(workbench):
    count = max(workbench.config.training_points)
    lats, lngs = taxi_points(count, seed=workbench.config.seed + 1000)
    return cell_ids_from_lat_lng_arrays(lats, lngs)


def test_training_pass(benchmark, workbench, neighborhoods, training_ids):
    base, _ = workbench.base_covering("neighborhoods")

    def train():
        covering = base.copy()
        return train_super_covering(covering, neighborhoods, training_ids), covering

    (report, covering) = benchmark(train)
    benchmark.extra_info["cells_split"] = report.cells_split
    benchmark.extra_info["cells_after"] = covering.num_cells


def test_trained_accurate_join(benchmark, workbench, taxi, neighborhoods, training_ids):
    lats, lngs, ids = taxi
    base, _ = workbench.base_covering("neighborhoods")
    covering = base.copy()
    train_super_covering(covering, neighborhoods, training_ids)
    store = AdaptiveCellTrie(covering, 8, LookupTable())
    result = benchmark(
        accurate_join, store, store.lookup_table, ids, neighborhoods, lngs, lats
    )
    benchmark.extra_info["pip_per_point"] = round(result.num_pip_tests / len(ids), 4)


def test_untrained_accurate_join(benchmark, workbench, taxi, neighborhoods):
    lats, lngs, ids = taxi
    store = workbench.store("neighborhoods", None, "ACT4")
    result = benchmark(
        accurate_join, store, store.lookup_table, ids, neighborhoods, lngs, lats
    )
    benchmark.extra_info["pip_per_point"] = round(result.num_pip_tests / len(ids), 4)
