"""Ablations: designs the paper considered, on neighborhoods at the finest
configured precision with the taxi points.

* Node types (§3.1): ART-style Node4 inner nodes, rejected for saving "only
  a negligible amount of space" while slowing the probe's dispatch.
* Curves (§2): Hilbert vs Morton enumeration; both keep the prefix property
  the ACT needs, they differ in conversion cost and probe locality.
* Batch size (§3.4): the parallel probe's per-thread batch.  The paper's
  threads fetch 16 tuples at a time; numpy needs far larger batches to
  amortize its per-call cost (thread-scaling setup: arXiv:1802.09488 §5).
"""

from __future__ import annotations

from repro.baselines import CompressedCellTrie
from repro.bench.measure import probe_throughput_mpts
from repro.bench.result import ExperimentResult
from repro.bench.workbench import Workbench
from repro.cells.curves import (
    morton_cell_ids_from_lat_lng_arrays,
    reencode_super_covering_morton,
)
from repro.cells.vectorized import cell_ids_from_lat_lng_arrays
from repro.core.act import AdaptiveCellTrie
from repro.core.joins import parallel_count_join
from repro.util.timing import Timer, throughput_mpts

#: Per-thread batch sizes of the batch-size sweep (4 Ki ... 256 Ki), run at
#: two threads; each is timed three times and the best run reported, since
#: one join of the quick preset's points takes milliseconds.
BATCH_SIZES = (1 << 12, 1 << 14, 1 << 16, 1 << 18)


def run(workbench: Workbench) -> list[ExperimentResult]:
    precision = min(workbench.config.precisions)
    setup = f"(neighborhoods, {precision:g} m, taxi points)"
    lats, lngs, ids = workbench.taxi()
    covering, _ = workbench.super_covering("neighborhoods", precision)
    num_polygons = len(workbench.polygons("neighborhoods"))
    act4 = workbench.store("neighborhoods", precision, "ACT4")

    node_types = ExperimentResult(
        experiment_id="ablation_node_types",
        title=f"Ablation: ART-style Node4 nodes {setup}",
        headers=["index", "full nodes", "Node4 nodes", "size [bytes]", "build [s]",
                 "throughput [M points/s]"],
    )
    node4 = CompressedCellTrie(covering, 8)
    stores = ((act4, act4.num_nodes, 0), (node4, node4.num_full_nodes, node4.num_node4))
    mpts = [probe_throughput_mpts(s, ids, num_polygons) for s, _, _ in stores]
    for (store, full_nodes, node4_nodes), store_mpts in zip(stores, mpts):
        node_types.add_row(store.name, full_nodes, node4_nodes, store.size_bytes,
                           round(store.build_seconds, 3), round(store_mpts, 2))
    node_types.add_note(
        f"Node4 saves {100.0 * (1.0 - node4.size_bytes / act4.size_bytes):.2f} % of "
        f"ACT4's bytes at {mpts[1] / mpts[0]:.2f}x its probe throughput"
    )

    curves = ExperimentResult(
        experiment_id="ablation_curves",
        title=f"Ablation: Hilbert vs Morton curve {setup}",
        headers=["curve", "conversion [ns/point]", "throughput [M points/s]"],
    )
    morton = AdaptiveCellTrie(reencode_super_covering_morton(covering), 8)
    for curve, convert, store in (
        ("hilbert", cell_ids_from_lat_lng_arrays, act4),
        ("morton", morton_cell_ids_from_lat_lng_arrays, morton),
    ):
        convert(lats[:65536], lngs[:65536])  # warm-up
        with Timer() as timer:
            curve_ids = convert(lats, lngs)
        curves.add_row(
            curve,
            round(timer.seconds / len(curve_ids) * 1e9, 1),
            round(probe_throughput_mpts(store, curve_ids, num_polygons), 2),
        )

    batch_size = ExperimentResult(
        experiment_id="ablation_batch_size",
        title=f"Ablation: per-thread batch size, 2 threads {setup}",
        headers=["batch [points]", "throughput [M points/s]"],
    )
    for size in BATCH_SIZES:
        seconds = []
        for _ in range(3):
            with Timer() as timer:
                parallel_count_join(act4, ids, num_polygons, 2, batch_size=size)
            seconds.append(timer.seconds)
        batch_size.add_row(size, round(throughput_mpts(len(ids), min(seconds)), 2))
    batch_size.add_note("best of 3 runs per batch size")
    return [node_types, curves, batch_size]
