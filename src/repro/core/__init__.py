"""The paper's primary contribution.

* :mod:`repro.core.refs` — polygon references (id + interior flag),
* :mod:`repro.core.super_covering` — the holistic multi-polygon covering
  with precision-preserving conflict resolution (Listing 1),
* :mod:`repro.core.lookup_table` — deduplicated reference-list storage,
* :mod:`repro.core.act` — the Adaptive Cell Trie (ACT) radix tree,
* :mod:`repro.core.precision` — precision-bound refinement (Section 3.2),
* :mod:`repro.core.training` — adapting the index to historical points
  (Section 3.3.1),
* :mod:`repro.core.joins` — the approximate and accurate join algorithms
  (Listing 3), the one driver every join starts in and the one merge of
  partial results,
* :mod:`repro.core.morsels` — the morsel thread driver (Section 3.4) of
  the offline parallel join,
* :mod:`repro.core.builder` — the high-level :class:`PolygonIndex` facade
  and the reusable build pipeline with versioned snapshots,
* :mod:`repro.core.dynamic` — the dynamic index lifecycle: a delta
  overlay and tombstones over an immutable base snapshot, compacted
  under one lock,
* :mod:`repro.core.adaptive` — the online adaptation loop: refinement
  telemetry, drift detection, and background retraining of live layers,
* :mod:`repro.core.flat` — the zero-copy snapshot plane: one probe
  generation packed into contiguous buffers, attachable from disk
  (mmap) or shared memory into the same index classes a build produces.
"""

from repro.core.refs import PolygonRef, merge_refs
from repro.core.lookup_table import LookupTable
from repro.core.super_covering import SuperCovering, build_super_covering
from repro.core.act import AdaptiveCellTrie
from repro.core.adaptive import (
    AdaptationPolicy,
    AdaptationStatus,
    AdaptiveController,
)
from repro.core.precision import refine_to_precision
from repro.core.training import (
    SthEvaluator,
    solely_true_hit_rate,
    train_super_covering,
)
from repro.core.joins import (
    JoinResult,
    approximate_join,
    accurate_join,
    decode_entries,
)
from repro.core.builder import (
    PolygonIndex,
    ProbeView,
    build_pipeline,
    build_store,
    cover_polygon,
    cover_polygons,
    next_index_version,
)
from repro.core.dynamic import DynamicPolygonIndex, OverlayCellStore
from repro.core.flat import FlatSnapshot, attach_index, pack_index
from repro.core.serialize import load_index, save_index

__all__ = [
    "PolygonRef",
    "merge_refs",
    "LookupTable",
    "SuperCovering",
    "build_super_covering",
    "AdaptiveCellTrie",
    "AdaptationPolicy",
    "AdaptationStatus",
    "AdaptiveController",
    "refine_to_precision",
    "SthEvaluator",
    "solely_true_hit_rate",
    "train_super_covering",
    "JoinResult",
    "approximate_join",
    "accurate_join",
    "decode_entries",
    "PolygonIndex",
    "ProbeView",
    "build_pipeline",
    "build_store",
    "cover_polygon",
    "cover_polygons",
    "next_index_version",
    "DynamicPolygonIndex",
    "OverlayCellStore",
    "FlatSnapshot",
    "attach_index",
    "pack_index",
    "save_index",
    "load_index",
]
