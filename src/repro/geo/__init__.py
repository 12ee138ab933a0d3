"""Planar geometry kernel.

This package is the from-scratch substrate replacing the geometric parts of
the Google S2 library used by the paper: polygons with holes, minimum
bounding rectangles, point-in-polygon tests (the refinement-phase workhorse),
and the rectangle/polygon relation used by the region coverer.

Coordinates are (lng, lat) pairs interpreted planarly; see DESIGN.md §1.3
for why the planar treatment is sound at city scale.
"""

from repro.geo.rect import Rect
from repro.geo.polygon import Polygon, Ring
from repro.geo.pip import contains_point, contains_points
from repro.geo.refine import RefinementEngine
from repro.geo.relation import Relation
from repro.geo.wkt import polygon_from_wkt, polygon_to_wkt

__all__ = [
    "Rect",
    "Ring",
    "Polygon",
    "contains_point",
    "contains_points",
    "RefinementEngine",
    "Relation",
    "polygon_from_wkt",
    "polygon_to_wkt",
]
