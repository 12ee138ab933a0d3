"""repro — Adaptive main-memory indexing for high-performance point-polygon joins.

A from-scratch Python reproduction of Kipf et al., EDBT 2020: the Adaptive
Cell Trie (ACT) polygon index, the approximate join with a user-defined
precision bound, the accurate join with index training, all substrates
(an S2-style hierarchical cell grid, a planar geometry kernel), and every
baseline of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import PolygonIndex, Polygon

    zones = [Polygon([(-74.02, 40.70), (-73.98, 40.70),
                      (-73.98, 40.74), (-74.02, 40.74)])]
    index = PolygonIndex.build(zones, precision_meters=4.0)
    result = index.join(np.array([40.72]), np.array([-74.0]))
    print(result.counts)          # points per polygon

Online serving (micro-batching, hot-cell caching, multi-layer routing)::

    from repro import JoinService

    service = JoinService(index)
    zone_ids = service.lookup(40.72, -74.0)

See DESIGN.md for the architecture and layer diagram.
"""

from repro.cells import CellId, LatLng, cell_ids_from_lat_lng_arrays
from repro.cells.coverer import CovererOptions, RegionCoverer
from repro.core import (
    AdaptationPolicy,
    AdaptationStatus,
    AdaptiveCellTrie,
    DynamicPolygonIndex,
    FlatSnapshot,
    JoinResult,
    LookupTable,
    PolygonIndex,
    PolygonRef,
    SuperCovering,
    accurate_join,
    approximate_join,
    build_super_covering,
    load_index,
    refine_to_precision,
    save_index,
    train_super_covering,
)
from repro.geo import Polygon, Rect, Ring, polygon_from_wkt, polygon_to_wkt
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Observability,
    Tracer,
    render_prometheus,
    stats_json,
)
from repro.serve import (
    HotCellCache,
    JoinableIndex,
    JoinService,
    LayerRouter,
    LayerStatus,
    ServiceStats,
)

__version__ = "1.40.0"

__all__ = [
    "CellId",
    "LatLng",
    "cell_ids_from_lat_lng_arrays",
    "CovererOptions",
    "RegionCoverer",
    "AdaptationPolicy",
    "AdaptationStatus",
    "AdaptiveCellTrie",
    "FlatSnapshot",
    "JoinResult",
    "LookupTable",
    "PolygonIndex",
    "PolygonRef",
    "SuperCovering",
    "accurate_join",
    "approximate_join",
    "build_super_covering",
    "load_index",
    "refine_to_precision",
    "save_index",
    "train_super_covering",
    "Polygon",
    "Rect",
    "Ring",
    "polygon_from_wkt",
    "polygon_to_wkt",
    "DynamicPolygonIndex",
    "EventLog",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "render_prometheus",
    "stats_json",
    "HotCellCache",
    "JoinableIndex",
    "JoinService",
    "LayerRouter",
    "LayerStatus",
    "ServiceStats",
    "__version__",
]
