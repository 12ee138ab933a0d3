"""Every competitor of the paper's evaluation, implemented from scratch.

Cell stores (drop-in alternatives to ACT over the same super covering):

* :class:`~repro.baselines.sorted_vector.SortedVectorStore` — the paper's
  "LB": binary search over a sorted cell-id vector,
* :class:`~repro.baselines.btree.BTreeStore` — the paper's "GBT": a
  bulk-loaded B-tree with 256-byte nodes,
* :class:`~repro.baselines.act_compressed.CompressedCellTrie` — the
  design the paper rejected: an ACT with ART-style Node4 inner nodes
  (the node-types ablation).

Filter-and-refine competitors (own the whole join, not just the filter):

* :class:`~repro.baselines.rtree.RTree` — "RT": an STR-packed R-tree on
  polygon MBRs with max 8 entries per node,
* :class:`~repro.baselines.postgis_like.GiSTIndex` — "PG": a PostGIS-style
  GiST R-tree (insertion-built, quadratic split, page-sized nodes),
* :class:`~repro.baselines.shape_index.ShapeIndex` — "SI": an
  S2ShapeIndex-analog mapping grid cells to clipped polygon edges,
  configurable edges-per-cell (SI1 / SI10).

GPU substitutes (see DESIGN.md §1.3 item 5):

* :class:`~repro.baselines.raster_join.RasterJoin` — "BRJ"/"ARJ": the
  raster-based GPU join simulated with a uniform pixel grid and a
  max-texture multi-pass model.
"""

from repro.baselines.sorted_vector import SortedVectorStore
from repro.baselines.btree import BTreeStore
from repro.baselines.act_compressed import CompressedCellTrie
from repro.baselines.rtree import RTree
from repro.baselines.postgis_like import GiSTIndex
from repro.baselines.shape_index import ShapeIndex
from repro.baselines.raster_join import RasterJoin

__all__ = [
    "SortedVectorStore",
    "BTreeStore",
    "CompressedCellTrie",
    "RTree",
    "GiSTIndex",
    "ShapeIndex",
    "RasterJoin",
]
