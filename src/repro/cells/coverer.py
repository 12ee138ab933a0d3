"""Region coverer: approximate polygons by sets of hierarchical cells.

This replaces the S2 ``RegionCoverer`` the paper uses to compute the two
per-polygon inputs of the super covering (Section 2, Figure 2):

* the **covering** — cells that together contain the whole polygon; a point
  in a covering cell is either inside or near the polygon (candidate hits),
* the **interior covering** — cells entirely inside the polygon; a point in
  one is guaranteed inside (true hits, enabling true hit filtering).

The algorithm mirrors S2's: a priority queue seeded with the six face
cells, always subdividing the coarsest remaining cell into its intersecting
children, until subdividing would exceed the ``max_cells`` budget or cells
reach ``max_level``.  The queue pops ``(level, id)`` ascending and children
sit one level down, so it *is* level-synchronous and runs that way here
(:func:`batch_coverings`): one round per level over id-sorted frontiers.  A
round gathers the cells any covering in flight might subdivide — over a
block of polygons, and over the covering and the interior covering of each,
which walk the same upper tree — derives all children with lsb arithmetic,
computes their bound rects in **one** call and classifies them with **one**
:mod:`repro.geo.relation` call per polygon.  Only then is the budget rule
replayed cell by cell (``len(result) + len(queue) + 4 > max_cells``, the
queue being the rest of this level plus the children already emitted): an
interior covering drops boundary cells at exhaustion, which frees budget for
later cells, so the replay is sequential — integer bookkeeping over codes
already in hand.  The classification errs toward INTERSECTS, never the
converse, so coverings always cover and interior coverings stay interior.

Coverings are returned *normalized*: sorted by id, duplicate-free, with no
cell containing another, and with complete groups of four siblings merged
into their parent.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cells.cell import bound_rects_for_cell_ids
from repro.cells.cellid import NUM_FACES, CellId
from repro.cells.vectorized import child_cell_ids
from repro.geo.polygon import Polygon
from repro.geo.relation import Relation, _rect_classifier

#: ``lsb`` of a level-0 (face) cell id.
_FACE_LSB = 1 << 60
_DISJOINT = int(Relation.DISJOINT)
_CONTAINED = int(Relation.CONTAINED)

#: Default level cap: level 28 keeps every cell level expressible in all
#: ACT fanout configurations (key extension needs ``level + delta <= 30``
#: headroom, see repro.core.act) while still offering ~9 cm precision.
DEFAULT_MAX_LEVEL = 28

#: Polygons covered together per round loop.  Bounds the per-round working
#: set (frontiers, child rects, code tables) independently of dataset size;
#: block boundaries cannot change a covering.
_BLOCK_POLYGONS = 32


@dataclass(frozen=True)
class CovererOptions:
    """Knobs matching the paper's "Polygon Approximations" defaults."""

    max_cells: int = 128
    min_level: int = 0
    max_level: int = DEFAULT_MAX_LEVEL

    def __post_init__(self) -> None:
        if self.max_cells < 4:
            raise ValueError("max_cells must be at least 4")
        if not 0 <= self.min_level <= self.max_level <= 30:
            raise ValueError(
                f"need 0 <= min_level <= max_level <= 30, got "
                f"[{self.min_level}, {self.max_level}]"
            )


class RegionCoverer:
    """Compute normalized (interior) coverings of polygons."""

    def __init__(self, options: CovererOptions | None = None):
        self.options = options or CovererOptions()

    def covering(self, polygon: Polygon) -> list[CellId]:
        """Cells that together contain every point of ``polygon``."""
        return batch_coverings([polygon], [(self.options, False)])[0][0]

    def interior_covering(self, polygon: Polygon) -> list[CellId]:
        """Cells lying entirely inside ``polygon`` (possibly empty)."""
        return batch_coverings([polygon], [(self.options, True)])[0][0]


@dataclass
class _CoverRun:
    """One covering in flight: the queue's current level plus the result."""

    options: CovererOptions
    interior: bool
    #: The id-sorted frontier (every queued cell of the current level) and
    #: its relation codes.
    ids: list[int]
    codes: list[int]
    result: list[int] = field(default_factory=list)

    def expandable(self, level: int) -> list[int]:
        """Frontier cells this round's replay may subdivide."""
        opts = self.options
        if level >= opts.max_level:
            return []
        if not self.interior and len(self.result) + len(self.ids) + 3 > opts.max_cells:
            # A covering's result + queue never shrinks without a split, so
            # a budget exhausted at the head of a level stays exhausted.
            return []
        if level < opts.min_level:
            return self.ids
        return [raw for raw, code in zip(self.ids, self.codes) if code != _CONTAINED]

    def advance(
        self, level: int, children: dict[int, tuple[list[int], list[int]]]
    ) -> None:
        """Replay one level of the queue; the children become the frontier.

        ``children`` maps a parent id to its four child ids and their codes.
        """
        opts = self.options
        result = self.result
        terminal_contained = level >= opts.min_level
        may_split = level < opts.max_level
        next_ids: list[int] = []
        next_codes: list[int] = []
        remaining = len(self.ids)
        for raw, code in zip(self.ids, self.codes):
            remaining -= 1
            if code == _CONTAINED and terminal_contained:
                result.append(raw)
            elif (
                may_split
                and len(result) + remaining + len(next_ids) + 4 <= opts.max_cells
            ):
                for child, child_code in zip(*children[raw]):
                    if child_code != _DISJOINT:
                        next_ids.append(child)
                        next_codes.append(child_code)
            elif not self.interior:
                # Out of budget or at max_level: boundary cells join a
                # covering (it must keep covering) but are dropped from an
                # interior covering (it must stay interior).
                result.append(raw)
        self.ids = next_ids
        self.codes = next_codes


def batch_coverings(
    polygons: Sequence[Polygon],
    specs: Sequence[tuple[CovererOptions, bool]],
) -> list[list[list[CellId]]]:
    """Normalized coverings of many polygons, one per ``(options, interior)`` spec.

    Returns, per polygon, a list aligned with ``specs``.  Cell-for-cell what
    covering the polygons one at a time, one spec at a time, produces.
    """
    coverings: list[list[list[CellId]]] = []
    for start in range(0, len(polygons), _BLOCK_POLYGONS):
        coverings.extend(_cover_block(polygons[start:start + _BLOCK_POLYGONS], specs))
    return coverings


def _cover_block(
    polygons: Sequence[Polygon],
    specs: Sequence[tuple[CovererOptions, bool]],
) -> list[list[list[CellId]]]:
    classifiers = [_rect_classifier(polygon) for polygon in polygons]
    face_ids = np.asarray(
        [CellId.face_cell(face).id for face in range(NUM_FACES)], dtype=np.uint64
    )
    face_rects = bound_rects_for_cell_ids(face_ids)
    runs: list[list[_CoverRun]] = []
    for classifier in classifiers:
        codes = classifier.relations(*face_rects)
        keep = codes != _DISJOINT
        runs.append([
            _CoverRun(options, interior, face_ids[keep].tolist(), codes[keep].tolist())
            for options, interior in specs
        ])
    level = 0
    while any(run.ids for poly_runs in runs for run in poly_runs):
        # Each parent is classified once per polygon, however many of the
        # polygon's runs reach it.
        parents = [
            sorted(set().union(*(run.expandable(level) for run in poly_runs)))
            for poly_runs in runs
        ]
        child_ids = child_cell_ids(
            np.asarray([raw for group in parents for raw in group], dtype=np.uint64)
        )
        rects = bound_rects_for_cell_ids(child_ids.ravel())
        offset = 0
        for classifier, group, poly_runs in zip(classifiers, parents, runs):
            stop = offset + len(group)
            codes = classifier.relations(
                *(bound[4 * offset:4 * stop] for bound in rects)
            ).reshape(-1, 4)
            children = dict(
                zip(group, zip(child_ids[offset:stop].tolist(), codes.tolist()))
            )
            offset = stop
            for run in poly_runs:
                run.advance(level, children)
        level += 1
    return [
        [normalize_covering([CellId(raw) for raw in run.result]) for run in poly_runs]
        for poly_runs in runs
    ]


def normalize_covering(cells: list[CellId]) -> list[CellId]:
    """Sort, deduplicate, drop covered cells, and merge sibling groups.

    The result contains no two conflicting cells (neither contains the
    other), matching the S2 notion of a *normalized* covering the paper
    relies on for binary-search lookups.
    """
    # One pass over the id-sorted cells in raw-id arithmetic (a cell spans
    # ``(id - lsb, id + lsb)``).  Cell ranges are nested or disjoint, so each
    # cell only meets the top of the stack: an earlier-sorting ancestor
    # absorbs it; earlier-sorting descendants get popped by it.  Four
    # complete siblings on top collapse into their parent, which may
    # complete a group in turn.
    stack: list[int] = []
    for raw in sorted({cell.id for cell in cells}):
        lsb = raw & -raw
        if stack:
            top = stack[-1]
            top_lsb = top & -top
            if top - top_lsb < raw < top + top_lsb:
                continue
            while stack and raw - lsb < stack[-1] < raw + lsb:
                stack.pop()
        stack.append(raw)
        while len(stack) >= 4 and lsb < _FACE_LSB:
            first = stack[-4]
            parent = first + 3 * lsb
            if not (
                first & -first == lsb
                and parent & -parent == lsb << 2
                and stack[-3] == first + 2 * lsb
                and stack[-2] == first + 4 * lsb
                and stack[-1] == first + 6 * lsb
            ):
                break
            del stack[-4:]
            stack.append(parent)
            lsb <<= 2
    return [CellId(raw) for raw in stack]
