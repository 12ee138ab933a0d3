"""Table 1: super covering metrics per polygon dataset and precision.

Paper columns: number of cells, lookup-table size, time to build the
individual coverings, and time to build the super covering (we fold the
precision refinement into the super-covering time, since at paper scale
both happen during covering construction).
"""

from __future__ import annotations

from repro.bench.result import ExperimentResult
from repro.bench.workbench import POLYGON_DATASET_NAMES, Workbench
from repro.core.lookup_table import LookupTable
from repro.bench.measure import mib


def run(workbench: Workbench) -> list[ExperimentResult]:
    result = ExperimentResult(
        experiment_id="table1",
        title="Table 1: super covering metrics (NYC-analog polygon datasets)",
        headers=[
            "dataset",
            "precision [m]",
            "# cells",
            "lookup table [MiB]",
            "build indiv. coverings [s]",
            "build super covering [s]",
        ],
    )
    for name in POLYGON_DATASET_NAMES:
        _, base_timings = workbench.base_covering(name)
        for precision in workbench.config.precisions:
            covering, refine_seconds = workbench.super_covering(name, precision)
            lookup_table = LookupTable()
            lookup_table.encode_covering(covering)
            result.add_row(
                name,
                f"{precision:g}",
                covering.num_cells,
                round(mib(lookup_table.size_bytes), 3),
                round(base_timings["individual_coverings_seconds"], 2),
                round(base_timings["super_covering_seconds"] + refine_seconds, 2),
            )
    result.add_note(
        "census is generated at "
        f"{workbench.config.census_polygons} polygons (paper: 39,184; "
        "results/paper/ holds both presets)"
    )
    return [result]
