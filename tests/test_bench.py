"""Smoke tests for the experiment harness (tiny scales)."""

import numpy as np
import pytest

from repro.bench import BenchConfig, Workbench
from repro.bench.result import ExperimentResult
from repro.bench.workbench import STORE_FACTORIES


@pytest.fixture(scope="module")
def tiny_workbench():
    config = BenchConfig(
        taxi_points=5_000,
        uniform_points=3_000,
        twitter_nyc_points=3_000,
        precisions=(120.0, 60.0),
        census_polygons=60,
        threads=(1, 2),
        training_points=(1_000, 2_000),
        slow_baseline_points=2_000,
        max_texture=256,
        adapt_train_points=4_000,
        adapt_query_points=8_000,
        adapt_batch=2_048,
    )
    return Workbench(config)


class TestWorkbench:
    def test_polygon_caching(self, tiny_workbench):
        assert tiny_workbench.polygons("boroughs") is tiny_workbench.polygons("boroughs")

    def test_census_uses_config_count(self, tiny_workbench):
        assert len(tiny_workbench.polygons("census")) == 60

    def test_super_covering_cached_per_precision(self, tiny_workbench):
        a, _ = tiny_workbench.super_covering("boroughs", 120.0)
        b, _ = tiny_workbench.super_covering("boroughs", 120.0)
        assert a is b

    def test_refinement_does_not_mutate_base(self, tiny_workbench):
        base, _ = tiny_workbench.base_covering("boroughs")
        before = base.num_cells
        refined, _ = tiny_workbench.super_covering("boroughs", 60.0)
        assert base.num_cells == before
        assert refined.num_cells >= before

    def test_store_kinds(self, tiny_workbench):
        for kind in STORE_FACTORIES:
            store = tiny_workbench.store("boroughs", 120.0, kind)
            assert hasattr(store, "probe")

    def test_points_have_cell_ids(self, tiny_workbench):
        lats, lngs, ids = tiny_workbench.taxi()
        assert len(lats) == len(lngs) == len(ids) == 5_000
        assert ids.dtype == np.uint64


class TestResultContainer:
    def test_text_rendering(self):
        result = ExperimentResult("t", "Title", ["a", "b"])
        result.add_row(1, 2)
        result.add_note("a note")
        text = result.to_text()
        assert "Title" in text and "a note" in text

    def test_csv_rendering(self):
        result = ExperimentResult("t", "Title", ["a", "b"])
        result.add_row(1, "x")
        csv_text = result.to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        assert csv_text.splitlines()[1] == "1,x"


@pytest.mark.slow
class TestRunners:
    """Each runner completes and emits plausible rows at tiny scale."""

    def test_table1(self, tiny_workbench):
        from repro.bench import table1

        (result,) = table1.run(tiny_workbench)
        assert len(result.rows) == 3 * 2  # datasets x precisions

    def test_table2(self, tiny_workbench):
        from repro.bench import table2

        (result,) = table2.run(tiny_workbench)
        assert len(result.rows) == 3 * len(STORE_FACTORIES)
        sizes = [row[2] for row in result.rows]
        assert all(size > 0 for size in sizes)

    def test_fig7(self, tiny_workbench):
        from repro.bench import fig7

        left, middle, right = fig7.run(tiny_workbench)
        assert len(left.rows) == 3 * len(STORE_FACTORIES)
        assert len(middle.rows) == 2 * len(STORE_FACTORIES)
        assert all(row[2] > 0 for row in left.rows)

    def test_table3(self, tiny_workbench):
        from repro.bench import table3

        (result,) = table3.run(tiny_workbench)
        assert len(result.rows) == len(STORE_FACTORIES)

    def test_table4(self, tiny_workbench):
        from repro.bench import table4

        (result,) = table4.run(tiny_workbench)
        assert len(result.rows) == 6
        for row in result.rows:
            shares = row[3:]
            assert abs(sum(shares) - 1.0) < 0.02 or sum(shares) == 0.0

    def test_table5(self, tiny_workbench):
        from repro.bench import table5

        (result,) = table5.run(tiny_workbench)
        assert len(result.rows) == 2 * len(STORE_FACTORIES)

    def test_fig8(self, tiny_workbench):
        from repro.bench import fig8

        (result,) = fig8.run(tiny_workbench)
        assert len(result.rows) == 3 * len(STORE_FACTORIES)

    def test_fig9(self, tiny_workbench):
        from repro.bench import fig9
        from repro.datasets import TWITTER_CITIES

        (result,) = fig9.run(tiny_workbench)
        # cities x precisions x stores
        assert len(result.rows) == len(TWITTER_CITIES) * 2 * len(STORE_FACTORIES)
        assert all(row[3] > 0 for row in result.rows)

    def test_fig10(self, tiny_workbench):
        from repro.bench import fig10

        (result,) = fig10.run(tiny_workbench)
        # 3 ACT variants + SI1 + SI10 + RT + PG per dataset.
        assert len(result.rows) == 3 * 7

    def test_training_tables(self, tiny_workbench):
        from repro.bench import training_bench

        (table6,) = training_bench.run_table6(tiny_workbench)
        (table7,) = training_bench.run_table7(tiny_workbench)
        assert len(table6.rows) == 3 * 3  # datasets x (untrained + 2 sizes)
        assert len(table7.rows) == 3

    def test_fig11(self, tiny_workbench):
        from repro.bench import fig11

        (result,) = fig11.run(tiny_workbench)
        assert any(row[2] == "BRJ" for row in result.rows)
        assert any(row[2] == "ARJ" for row in result.rows)

    def test_ablations(self, tiny_workbench):
        from repro.bench import ablations

        node_types, curves, batch_size = ablations.run(tiny_workbench)
        (act4, node4) = node_types.rows
        assert (act4[0], node4[0]) == ("ACT4", "ACT4+Node4")
        assert node4[2] > 0 and node4[3] < act4[3]  # Node4 nodes, size [bytes]
        assert [row[0] for row in curves.rows] == ["hilbert", "morton"]
        assert [row[0] for row in batch_size.rows] == list(ablations.BATCH_SIZES)
        assert all(row[-1] > 0 for row in node_types.rows + curves.rows + batch_size.rows)


class TestMainEntry:
    def test_unknown_experiment_rejected(self, tmp_path):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense", "--results-dir", str(tmp_path)])


class TestAdaptRunner:
    def test_adapt_completes_at_tiny_scale(self, tiny_workbench):
        from repro.bench import adapt_bench

        (result,) = adapt_bench.run(tiny_workbench)
        assert len(result.rows) == 6  # 2 phases x 3 services
        assert {row[1] for row in result.rows} == {
            "static", "adaptive", f"adaptive x{adapt_bench.ADAPT_SHARDS} lanes"
        }
        assert any("bit-identical" in note for note in result.notes)
