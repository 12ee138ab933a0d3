"""Figure 10: accurate join — ACT vs S2ShapeIndex vs R-tree (vs PostGIS).

ACT runs on the *coarse* default super covering (no precision bound) and
refines candidate hits with PIP tests; SI restricts PIP work to per-cell
clipped edges; RT/PG refine every MBR candidate.  The paper additionally
reports PostGIS numbers in the text (excluded from its plot); we include
the PG row directly.
"""

from __future__ import annotations


from repro.baselines import GiSTIndex, RTree, ShapeIndex
from repro.bench.measure import exact_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, Workbench
from repro.util.timing import Timer, throughput_mpts


def run(workbench: Workbench) -> list[ExperimentResult]:
    config = workbench.config
    result = ExperimentResult(
        experiment_id="fig10",
        title="Figure 10: accurate join throughput (taxi points, coarse coverings)",
        headers=["dataset", "index", "throughput [M points/s]", "PIP tests/point"],
    )
    lats, lngs, ids = workbench.taxi()
    slow_n = min(config.slow_baseline_points, len(ids))
    for name in POLYGON_DATASET_NAMES:
        polygons = workbench.polygons(name)
        # ACT variants on the coarse covering.
        for kind in ("ACT1", "ACT2", "ACT4"):
            store = workbench.store(name, None, kind)
            mpts, join = exact_throughput_mpts(store, ids, polygons, lngs, lats)
            result.add_row(
                name, kind, round(mpts, 3), round(join.num_pip_tests / len(ids), 4)
            )
        # ShapeIndex variants.
        for max_edges in (1, 10):
            shape_index = ShapeIndex(polygons, max_edges_per_cell=max_edges)
            shape_index.join(ids[:65536], lngs[:65536], lats[:65536])  # warmup
            with Timer() as timer:
                join = shape_index.join(ids, lngs, lats)
            result.add_row(
                name,
                shape_index.name,
                round(throughput_mpts(len(ids), timer.seconds), 3),
                round(join.num_pip_tests / len(ids), 4),
            )
        # R-tree and PostGIS-like GiST on a point subset (they are orders
        # of magnitude slower, as in the paper).
        for factory in (RTree, GiSTIndex):
            tree = factory(polygons)
            with Timer() as timer:
                join = tree.join(lngs[:slow_n], lats[:slow_n])
            result.add_row(
                name,
                tree.name,
                round(throughput_mpts(slow_n, timer.seconds), 3),
                round(join.num_pip_tests / slow_n, 4),
            )
    result.add_note(f"RT/PG measured on {slow_n} points (full set for the others)")
    return [result]
