"""Table 7 kernel: the solely-true-hits computation before/after training."""

from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.training import solely_true_hit_rate, train_super_covering
from repro.datasets import taxi_points


def test_sth_untrained(benchmark, workbench, taxi):
    _, _, ids = taxi
    base, _ = workbench.base_covering("neighborhoods")
    rate = benchmark(solely_true_hit_rate, base, ids)
    benchmark.extra_info["sth_pct"] = round(rate * 100.0, 1)


def test_sth_trained(benchmark, workbench, taxi, neighborhoods):
    _, _, ids = taxi
    base, _ = workbench.base_covering("neighborhoods")
    covering = base.copy()
    count = max(workbench.config.training_points)
    lats, lngs = taxi_points(count, seed=workbench.config.seed + 1000)
    train_super_covering(
        covering, neighborhoods, cell_ids_from_lat_lng_arrays(lats, lngs)
    )
    rate = benchmark(solely_true_hit_rate, covering, ids)
    benchmark.extra_info["sth_pct"] = round(rate * 100.0, 1)
