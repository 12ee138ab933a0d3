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
computes their bound rects in **one** call and classifies every ``(child,
polygon)`` pair of the block in **one** :mod:`repro.geo.relation` pass
over the block's latitude-bucketed edges.  Only then is the budget rule
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
from repro.geo.relation import Relation, RelationTable, relations_for_pairs

#: ``lsb`` of a level-0 (face) cell id.
_FACE_LSB = 1 << 60
_DISJOINT = int(Relation.DISJOINT)
_CONTAINED = int(Relation.CONTAINED)

#: The six face cells, where every covering starts, and their rects.
_FACE_IDS = np.asarray(
    [CellId.face_cell(face).id for face in range(NUM_FACES)], dtype=np.uint64
)
_FACE_RECTS = bound_rects_for_cell_ids(_FACE_IDS)

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

        ``children`` maps a parent id to its non-DISJOINT child ids and
        their codes.
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
                kept_ids, kept_codes = children[raw]
                next_ids += kept_ids
                next_codes += kept_codes
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
    table = RelationTable(polygons)
    num = len(polygons)
    face_codes = relations_for_pairs(
        table,
        _FACE_RECTS,
        np.tile(np.arange(NUM_FACES), num),
        np.repeat(np.arange(num), NUM_FACES),
    ).reshape(num, NUM_FACES)
    runs: list[list[_CoverRun]] = []
    for codes in face_codes:
        keep = codes != _DISJOINT
        runs.append([
            _CoverRun(options, interior, _FACE_IDS[keep].tolist(), codes[keep].tolist())
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
        sizes = np.asarray([len(group) for group in parents], dtype=np.int64)
        child_ids = child_cell_ids(
            np.asarray([raw for group in parents for raw in group], dtype=np.uint64)
        )
        # One pass classifies every (child, polygon) pair of the block.
        codes = relations_for_pairs(
            table,
            bound_rects_for_cell_ids(child_ids.ravel()),
            np.arange(child_ids.size),
            np.repeat(np.arange(num), 4 * sizes),
        ).reshape(-1, 4)
        # Each parent's non-DISJOINT children, as slices of two flat lists.
        keep = codes != _DISJOINT
        kept_ids = child_ids[keep].tolist()
        kept_codes = codes[keep].tolist()
        bounds = [0, *np.cumsum(keep.sum(axis=1)).tolist()]
        offset = 0
        for group, poly_runs in zip(parents, runs):
            stop = offset + len(group)
            children = {
                raw: (kept_ids[lo:hi], kept_codes[lo:hi])
                for raw, lo, hi in zip(group, bounds[offset:stop], bounds[offset + 1:stop + 1])
            }
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
