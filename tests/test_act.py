"""Tests for the Adaptive Cell Trie.

The master correctness check: for any super covering and any batch of query
ids, every ACT fanout must return exactly the same reference sets as the
sorted-vector containment lookup (which is itself tested against a brute
force scan).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.baselines import SortedVectorStore
from repro.cells import CellId, cell_ids_from_lat_lng_arrays
from repro.core.act import AdaptiveCellTrie, signed_pool
from repro.core.refs import PolygonRef
from repro.core.super_covering import SuperCovering, build_super_covering

BASE = CellId.from_degrees(40.7, -74.0)


def make_covering(cells_with_refs) -> SuperCovering:
    covering = SuperCovering()
    for cell, refs in cells_with_refs:
        covering.insert(cell, refs)
    return covering


def decoded(store, entries):
    return [
        store.lookup_table.decode_entry(int(e)) if e else () for e in entries
    ]


def probed(store, *cells: CellId):
    """The decoded references of each cell's leaf id, probed as one batch."""
    return decoded(store, store.probe(np.asarray([c.id for c in cells], dtype=np.uint64)))


@st.composite
def random_covering(draw):
    per_polygon = []
    for pid in range(draw(st.integers(min_value=1, max_value=3))):
        cells = []
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            level = draw(st.integers(min_value=4, max_value=18))
            cell = BASE.parent(2)
            for _ in range(level - 2):
                cell = cell.child(draw(st.integers(min_value=0, max_value=3)))
            cells.append(cell)
        per_polygon.append((pid, cells, []))
    return build_super_covering(per_polygon)


class TestProbeCorrectness:
    @pytest.mark.parametrize("fanout_bits", [2, 4, 8])
    def test_matches_sorted_vector_on_grid(
        self, fanout_bits, overlap_grid_polygons, nyc_query_points
    ):
        from repro.cells import CovererOptions, RegionCoverer

        coverer = RegionCoverer(CovererOptions(max_cells=64, max_level=16))
        interior = RegionCoverer(CovererOptions(max_cells=64, max_level=14))
        covering = build_super_covering(
            (pid, coverer.covering(p), interior.interior_covering(p))
            for pid, p in enumerate(overlap_grid_polygons)
        )
        lngs, lats = nyc_query_points
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        act = AdaptiveCellTrie(covering, fanout_bits)
        reference = SortedVectorStore(covering)
        # One entry encoder: both stores' own tables lay out alike.
        assert np.array_equal(act.probe(ids), reference.probe(ids))

    @settings(max_examples=30, deadline=None)
    @given(random_covering(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_sorted_vector_randomized(self, covering, seed):
        generator = np.random.default_rng(seed)
        lats = generator.uniform(40.4, 41.0, 300)
        lngs = generator.uniform(-74.3, -73.7, 300)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        reference = SortedVectorStore(covering)
        for fanout_bits in (2, 4, 8):
            act = AdaptiveCellTrie(covering, fanout_bits)
            assert np.array_equal(act.probe(ids), reference.probe(ids))

    def test_probe_hit_and_miss(self):
        covering = make_covering([(BASE.parent(10), [PolygonRef(3, True)])])
        act = AdaptiveCellTrie(covering, 8)
        miss = CellId.from_degrees(-33.0, 151.0)
        assert probed(act, BASE, miss) == [(PolygonRef(3, True),), ()]

    def test_empty_covering(self):
        act = AdaptiveCellTrie(SuperCovering(), 8)
        ids = np.asarray([BASE.id], dtype=np.uint64)
        assert act.probe(ids)[0] == 0
        assert act.num_nodes == 0

    def test_face_level_cell(self):
        covering = make_covering([(CellId.face_cell(4), [PolygonRef(1, False)])])
        act = AdaptiveCellTrie(covering, 8)
        assert probed(act, BASE) == [(PolygonRef(1, False),)]

    def test_prefix_rejection(self):
        # All keys deep under one subtree: probes outside must miss fast.
        covering = make_covering([(BASE.parent(14), [PolygonRef(1, True)])])
        act = AdaptiveCellTrie(covering, 8)
        nearby_miss = CellId.from_degrees(40.0, -74.0)
        entries, stats = act.probe_instrumented(
            np.asarray([nearby_miss.id], dtype=np.uint64)
        )
        assert entries[0] == 0
        assert stats.prefix_rejections == 1


class TestKeyExtension:
    def test_aligned_level_not_extended(self):
        covering = make_covering([(BASE.parent(8), [PolygonRef(1, True)])])
        act = AdaptiveCellTrie(covering, 8)  # delta = 4; level 8 aligned
        assert act.num_keys == 1

    def test_unaligned_level_extended(self):
        covering = make_covering([(BASE.parent(9), [PolygonRef(1, True)])])
        act = AdaptiveCellTrie(covering, 8)  # level 9 -> 4^3 cells at level 12
        assert act.num_keys == 64

    def test_extension_preserves_lookups(self):
        covering = make_covering([(BASE.parent(9), [PolygonRef(1, True)])])
        act = AdaptiveCellTrie(covering, 8)
        inside = CellId(BASE.parent(9).range_min().id)
        outside = CellId(BASE.parent(8).range_max().id)
        assert probed(act, inside) == [(PolygonRef(1, True),)]
        if not BASE.parent(9).contains(outside):
            assert probed(act, outside) == [()]

    def test_too_deep_extension_rejected(self):
        covering = make_covering([(BASE.parent(29), [PolygonRef(1, True)])])
        with pytest.raises(ValueError):
            AdaptiveCellTrie(covering, 8)  # 29 -> 32 > 30

    def test_level_30_fine_for_fanout_4(self):
        covering = make_covering([(BASE, [PolygonRef(1, True)])])
        act = AdaptiveCellTrie(covering, 2)
        assert probed(act, BASE) == [(PolygonRef(1, True),)]


class TestStructure:
    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            AdaptiveCellTrie(SuperCovering(), 3)

    def test_variant_names(self):
        covering = make_covering([(BASE.parent(8), [PolygonRef(1, True)])])
        assert AdaptiveCellTrie(covering, 2).name == "ACT1"
        assert AdaptiveCellTrie(covering, 4).name == "ACT2"
        assert AdaptiveCellTrie(covering, 8).name == "ACT4"

    def test_higher_fanout_fewer_nodes(self, overlap_grid_polygons):
        from repro.cells import CovererOptions, RegionCoverer

        coverer = RegionCoverer(CovererOptions(max_cells=64, max_level=16))
        covering = build_super_covering(
            (pid, coverer.covering(p), []) for pid, p in enumerate(overlap_grid_polygons)
        )
        act1 = AdaptiveCellTrie(covering, 2)
        act4 = AdaptiveCellTrie(covering, 8)
        assert act4.num_nodes < act1.num_nodes

    def test_size_accounting(self):
        covering = make_covering([(BASE.parent(8), [PolygonRef(1, True)])])
        act = AdaptiveCellTrie(covering, 8)
        assert act.size_bytes == act.pool.nbytes + act.lookup_table.size_bytes
        assert act.pool.nbytes == (act.num_nodes + 1) * act.fanout * 8

    def test_attach_rejects_a_face_entry_missing_from_the_entry_table(self):
        covering = make_covering([(CellId.face_cell(VALUE_FACE), [PolygonRef(1, False)])])
        act = AdaptiveCellTrie(covering, 8)
        assert len(act.entries) == 2 and act._face_found[VALUE_FACE] == -1
        meta = {
            "fanout_bits": 8, "num_nodes": 0, "num_keys": 0,
            "num_input_cells": 1, "max_value_depth": 0,
        }
        rows = np.asarray(sorted(act._face_values.items()), dtype=np.uint64)
        no_faces = np.zeros((0, 5), dtype=np.uint64)
        attached = AdaptiveCellTrie.attach(
            act.pool, act.entries, no_faces, rows, meta, act.lookup_table
        )
        ids = np.asarray([BASE.id, leaf_under(CellId.face_cell(VALUE_FACE), 0.5)], dtype=np.uint64)
        assert np.array_equal(attached.probe(ids), act.probe(ids))
        with pytest.raises(ValueError, match="not in the entry table"):
            AdaptiveCellTrie.attach(
                act.pool, act.entries[:1], no_faces, rows, meta, act.lookup_table
            )

    def test_describe(self):
        covering = make_covering([(BASE.parent(8), [PolygonRef(1, True)])])
        info = AdaptiveCellTrie(covering, 8).describe()
        assert info["variant"] == "ACT4"
        assert info["num_input_cells"] == 1
        assert 0.0 < info["occupancy"] <= 1.0


class TestInstrumentation:
    def test_depths_bounded_by_tree_height(self, overlap_grid_polygons):
        from repro.cells import CovererOptions, RegionCoverer

        coverer = RegionCoverer(CovererOptions(max_cells=64, max_level=16))
        covering = build_super_covering(
            (pid, coverer.covering(p), []) for pid, p in enumerate(overlap_grid_polygons)
        )
        act = AdaptiveCellTrie(covering, 8)
        generator = np.random.default_rng(7)
        lats = generator.uniform(40.68, 40.76, 5000)
        lngs = generator.uniform(-74.02, -73.94, 5000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        entries, stats = act.probe_instrumented(ids)
        assert (entries == act.probe(ids)).all()
        assert stats.depths.max() <= act._max_value_depth
        histogram = stats.depth_histogram()
        assert abs(sum(histogram.values()) - 1.0) < 1e-9
        assert stats.avg_depth > 0


# ----------------------------------------------------------------------
# The bulk build against the retired key-materialising build
# ----------------------------------------------------------------------

def descend(cell: CellId, positions) -> CellId:
    for position in positions:
        cell = cell.child(position)
    return cell


_ref_rows = st.lists(
    st.builds(PolygonRef, st.integers(0, 40), st.booleans()),
    min_size=1,
    max_size=4,  # one / two inlined references, and TAG_OFFSET rows
    unique_by=lambda ref: ref.polygon_id,
).map(lambda refs: tuple(sorted(refs)))


@st.composite
def disjoint_covering(draw, max_level: int):
    """Disjoint cells on up to three faces (none: the empty covering).  A
    face is one level-0 cell, or a few cells under a stem of any length —
    a long stem is a single-child chain, i.e. a non-zero ``prefix_depth``
    — at levels 1 ... ``max_level``."""
    position = st.integers(0, 3)
    cells: list[CellId] = []
    for face in draw(st.lists(st.integers(0, 5), max_size=3, unique=True)):
        root = CellId.face_cell(face)
        if draw(st.integers(0, 4)) == 0:
            cells.append(root)
            continue
        stem = descend(
            root, draw(st.lists(position, min_size=1, max_size=max_level - 1))
        )
        for _ in range(draw(st.integers(1, 6))):
            room = min(8, max_level - stem.level)
            cell = descend(stem, draw(st.lists(position, max_size=room)))
            if not any(cell.intersects(other) for other in cells):
                cells.append(cell)
    return oracles.covering_from_dict({cell.id: draw(_ref_rows) for cell in cells})


def _face_trees(act: AdaptiveCellTrie) -> dict[int, tuple[int, int, int, int]]:
    return {
        face: (tree.root_base, tree.prefix_shift, tree.prefix_value, tree.prefix_depth)
        for face, tree in act._face_trees.items()
    }


class TestBulkBuildParity:
    """``AdaptiveCellTrie._build`` works on the sorted cells; the build it
    replaced materialised every extended key (``tests/oracles.py``).  Both
    must produce the same trie, bit for bit."""

    def _assert_same(self, covering: SuperCovering, fanout_bits: int) -> None:
        act = AdaptiveCellTrie(covering, fanout_bits)
        pool, face_trees, face_values, num_keys = oracles.act_pool_by_key_extension(
            covering, fanout_bits
        )
        # The signed pool is the tagged one re-encoded: its entry table is
        # every distinct entry, ascending after the miss entry 0.
        assert act.pool.dtype == np.int64 and act.entries.dtype == np.uint64
        assert act.entries[0] == 0 and np.all(act.entries[1:] > act.entries[:-1])
        assert np.array_equal(oracles.tagged_pool(act.pool, act.entries), pool)
        rows = np.asarray(sorted(face_values.items()), dtype=np.uint64).reshape(-1, 2)
        again, entries = signed_pool(pool, rows)
        assert np.array_equal(again, act.pool)
        assert np.array_equal(entries, act.entries)
        assert act.num_nodes == len(pool) // act.fanout - 1  # the sentinel
        assert act.num_keys == num_keys
        assert _face_trees(act) == face_trees
        assert act._face_values == face_values
        depths = [
            -(-CellId(raw).level // act.delta)
            for raw in covering.cell_ids.tolist()
        ]
        assert act._max_value_depth == max(depths, default=0)

    @settings(max_examples=120, deadline=None)
    @given(disjoint_covering(max_level=28), st.sampled_from([2, 4, 8]))
    def test_matches_key_extension_build(self, covering, fanout_bits):
        self._assert_same(covering, fanout_bits)

    @settings(max_examples=60, deadline=None)
    @given(disjoint_covering(max_level=30))
    def test_every_level_for_fanout_bits_2(self, covering):
        self._assert_same(covering, 2)

    @pytest.mark.parametrize("fanout_bits", [2, 4, 8])
    def test_trained_covering(self, fanout_bits, overlap_grid_polygons):
        """A real covering: interiors, candidates, shared reference sets."""
        from repro.core.builder import PolygonIndex

        self._assert_same(
            PolygonIndex.build(overlap_grid_polygons).super_covering, fanout_bits
        )

    @pytest.mark.parametrize("fanout_bits, level", [(8, 29), (8, 30)])
    def test_extension_past_level_30_keeps_its_message(self, fanout_bits, level):
        covering = make_covering(
            [
                (CellId.face_cell(SHALLOW_FACE).child(1), [PolygonRef(0, True)]),
                (BASE.parent(level), [PolygonRef(1, True)]),
            ]
        )
        delta = fanout_bits // 2
        message = (
            f"cell at level {level} cannot be key-extended to a multiple of "
            f"{delta} within 30 levels; cap covering max_level at "
            f"{30 - delta + 1} or below for this fanout"
        )
        with pytest.raises(ValueError) as ours:
            AdaptiveCellTrie(covering, fanout_bits)
        with pytest.raises(ValueError) as theirs:
            oracles.act_pool_by_key_extension(covering, fanout_bits)
        assert str(ours.value) == str(theirs.value) == message

    def test_invalid_cell_id_keeps_its_message(self):
        covering = SuperCovering._of(
            np.asarray([1 << 62], dtype=np.uint64),  # marker above the face bits
            np.asarray([0, 1], dtype=np.int64),
            np.asarray([2], dtype=np.uint32),
        )
        for build in (AdaptiveCellTrie, oracles.act_pool_by_key_extension):
            with pytest.raises(ValueError, match="^invalid cell id in super covering$"):
                build(covering, 8)


# ----------------------------------------------------------------------
# The one-descent probe: root tables, signed slots, sentinel retirement
# ----------------------------------------------------------------------

#: BASE sits on face 4; the deep tree lives there, the shallow one and the
#: level-0 cell on two other faces, and the remaining faces hold nothing.
DEEP_FACE = BASE.id >> 61
SHALLOW_FACE, VALUE_FACE = [face for face in range(6) if face != DEEP_FACE][:2]


def leaf_under(cell: CellId, fraction: float) -> int:
    """A leaf id inside ``cell`` (``fraction`` of the way along its range)."""
    lo, hi = cell.range_min().id, cell.range_max().id
    return (lo + int(fraction * (hi - lo))) | 1


_positions = st.lists(st.integers(0, 3), min_size=0, max_size=12)


@st.composite
def two_tree_covering(draw):
    """Cells deep under one subtree of ``DEEP_FACE`` (a long root prefix),
    cells spread over ``SHALLOW_FACE`` from level 1 down (no prefix), and
    — sometimes — all of ``VALUE_FACE`` as one level-0 cell."""
    covering = SuperCovering()
    pid = 0
    for _ in range(draw(st.integers(1, 4))):
        covering.insert(
            descend(BASE.parent(13), draw(_positions)), [PolygonRef(pid, bool(pid % 2))]
        )
        pid += 1
    shallow_root = CellId.face_cell(SHALLOW_FACE)
    for quadrant in draw(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True)):
        covering.insert(
            descend(shallow_root.child(quadrant), draw(_positions)),
            [PolygonRef(pid, bool(pid % 2))],
        )
        pid += 1
    if draw(st.booleans()):
        covering.insert(CellId.face_cell(VALUE_FACE), [PolygonRef(pid, True)])
    return covering


@st.composite
def query_batch(draw, covering: SuperCovering):
    """Leaf ids under covering cells, beside them (same face, so prefix-
    accepted or -rejected), and anywhere on any face."""
    cells = [CellId(raw) for raw in covering.cell_ids.tolist()]
    fraction = st.floats(0.0, 1.0)
    inside = st.builds(leaf_under, st.sampled_from(cells), fraction)
    beside = st.builds(
        lambda cell, f: leaf_under(cell.parent(max(cell.level - 3, 0)), f),
        st.sampled_from(cells), fraction,
    )
    anywhere = st.builds(
        lambda face, pos: (face << 61) | (pos << 1) | 1,
        st.integers(0, 5), st.integers(0, (1 << 60) - 1),
    )
    ids = draw(st.lists(inside | beside | anywhere, min_size=0, max_size=60))
    return np.asarray(ids, dtype=np.uint64)


def expected_refs(covering: SuperCovering, ids: np.ndarray) -> list[tuple]:
    found = [covering.find_containing(int(leaf)) for leaf in ids]
    return [() if hit is None else tuple(hit[1]) for hit in found]


class TestOneDescentProbe:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scalar_containment_across_root_tables(self, data):
        covering = data.draw(two_tree_covering())
        ids = data.draw(query_batch(covering))
        expected = expected_refs(covering, ids)
        for fanout_bits in (2, 4, 8):
            act = AdaptiveCellTrie(covering, fanout_bits)
            # Two face trees with different prefix depths: two root tables.
            assert len(act._root_tables) == 2
            assert act._root_tables[0].prefix_depth == 0
            entries, stats = act.probe_instrumented(ids)
            assert decoded(act, entries) == expected
            assert np.array_equal(act.probe(ids), entries)
            on_a_tree = np.isin(ids >> np.uint64(61), [DEEP_FACE, SHALLOW_FACE])
            assert stats.prefix_rejections == int(
                np.count_nonzero(on_a_tree & (stats.depths == 0))
            )
            assert stats.node_accesses == int(stats.depths.sum())

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_empty_trie_misses_everything(self, data):
        ids = data.draw(query_batch(make_covering([(BASE.parent(9), [PolygonRef(0, True)])])))
        for fanout_bits in (2, 4, 8):
            act = AdaptiveCellTrie(SuperCovering(), fanout_bits)
            entries, stats = act.probe_instrumented(ids)
            assert not entries.any() and not act.probe(ids).any()
            assert not stats.depths.any()
            assert (stats.node_accesses, stats.prefix_rejections) == (0, 0)


class TestTaggedDescentParity:
    """``probe`` and ``probe_instrumented`` read the signed pool; the
    tagged descent they replaced (``tests/oracles.py``) reads its tagged
    form.  Entries, depths and counters agree lane for lane."""

    def _assert_parity(self, act: AdaptiveCellTrie, ids: np.ndarray) -> None:
        entries, stats = act.probe_instrumented(ids)
        expected, depths, node_accesses, rejections = oracles.tagged_descent_probe(
            act, ids
        )
        assert entries.dtype == np.uint64 and np.array_equal(entries, expected)
        assert np.array_equal(act.probe(ids), expected)
        assert np.array_equal(stats.depths, depths)
        assert (stats.node_accesses, stats.prefix_rejections) == (
            node_accesses, rejections,
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([2, 4, 8]))
    def test_disjoint_coverings(self, data, fanout_bits):
        """Up to three faces, each one level-0 cell or a stem of any
        length (prefix depths differ, so several root tables)."""
        covering = data.draw(disjoint_covering(max_level=24))
        act = AdaptiveCellTrie(covering, fanout_bits)
        if covering.num_cells:
            self._assert_parity(act, data.draw(query_batch(covering)))
        anywhere = data.draw(
            st.lists(st.integers(0, (1 << 60) - 1), max_size=40).map(
                lambda positions: np.asarray(
                    [((k % 6) << 61) | (p << 1) | 1 for k, p in enumerate(positions)],
                    dtype=np.uint64,
                )
            )
        )
        self._assert_parity(act, anywhere)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_two_root_tables_and_a_face_cell(self, data):
        covering = data.draw(two_tree_covering())
        ids = data.draw(query_batch(covering))
        for fanout_bits in (2, 4, 8):
            self._assert_parity(AdaptiveCellTrie(covering, fanout_bits), ids)

    @pytest.mark.parametrize("fanout_bits", [2, 4, 8])
    def test_empty_batch(self, fanout_bits):
        covering = make_covering([(BASE.parent(9), [PolygonRef(0, True)])])
        act = AdaptiveCellTrie(covering, fanout_bits)
        self._assert_parity(act, np.zeros(0, dtype=np.uint64))
        assert act.probe(np.zeros(0, dtype=np.uint64)).dtype == np.uint64


def pinned_covering() -> tuple[SuperCovering, list[CellId]]:
    """400 cells at levels 7..22 under one level-6 cell, fixed by seed.

    Also returns the covering's cells in the order the Listing-1 insert
    left them in its dict: the pinned batches were drawn from cells in
    that order when the probe statistics were recorded.
    """
    generator = np.random.default_rng(2020)
    covering = SuperCovering()
    listing = oracles.ListingOneCovering()
    for pid in range(400):
        depth = int(generator.integers(1, 17))
        cell = descend(BASE.parent(6), generator.integers(0, 4, depth).tolist())
        covering.insert(cell, [PolygonRef(pid, bool(pid % 3))])
        listing.insert(cell, [PolygonRef(pid, bool(pid % 3))])
    assert oracles.covering_dict(covering) == listing.refs
    return covering, [CellId(raw) for raw in listing.refs]


def pinned_batches(
    covering: SuperCovering, recorded_order: list[CellId]
) -> dict[str, np.ndarray]:
    generator = np.random.default_rng(17)
    cells = sorted(recorded_order, key=lambda c: c.level)
    shallow, deep = cells[: len(cells) // 4], cells[-len(cells) // 8 :]
    same_depth = [cell for cell in cells if 13 <= cell.level <= 16]  # fanout 8

    def under(group, count):
        picks = generator.integers(0, len(group), count)
        return [leaf_under(group[k], f) for k, f in zip(picks, generator.random(count))]

    world = (
        (generator.integers(0, 6, 4096, dtype=np.uint64) << np.uint64(61))
        | (generator.integers(0, 1 << 60, 4096, dtype=np.uint64) << np.uint64(1))
        | np.uint64(1)
    )
    crossing = np.asarray(under(shallow, 3400) + under(deep, 696), dtype=np.uint64)
    generator.shuffle(crossing)
    return {
        "all_miss": world[covering_misses(covering, world)],
        "all_hit": np.asarray(under(same_depth, 4096), dtype=np.uint64),
        "crossing": crossing,
    }


def covering_misses(covering: SuperCovering, ids: np.ndarray) -> np.ndarray:
    return np.asarray([covering.find_containing(int(leaf)) is None for leaf in ids])


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


#: (node_accesses, prefix_rejections, depth histogram, sha256 of the
#: entries, sha256 of the depths) of ``probe_instrumented`` at 1.12.0
#: (per-face loop, compaction after every level), fanout 8.  The entry
#: digests of ``all_hit`` and ``crossing`` were re-recorded once, at
#: 1.14.0: every cell here holds 4-13 references, so its entry embeds a
#: lookup-table offset, and the table is now laid out in ascending
#: cell-id order instead of the covering dict's insertion order
#: (2bc9ba9110f677c1 and b8d50b1a86e4232f before).  The decoded
#: references — asserted next to the digests — did not move.
PINNED_PROBE_STATS = {
    "all_miss": (3, 694, [4093, 3], "c35020473aed1b46", "783cf896ace2a620"),
    "all_hit": (12288, 0, [0, 0, 0, 4096], "d63ed50918037704", "ce7c5a9a2ef113b5"),
    "crossing": (
        10179, 0, [0, 0, 3117, 283, 384, 312], "fc40821ebaf169e4", "f6075a0e3cfd2a27",
    ),
}


class TestPinnedProbeStats:
    """Entries and ``ProbeStats`` of batches that miss, hit, and cross
    value depths equal what the compact-every-level probe reported."""

    @pytest.fixture(scope="class")
    def pinned(self):
        covering, recorded_order = pinned_covering()
        return (
            covering,
            AdaptiveCellTrie(covering, 8),
            pinned_batches(covering, recorded_order),
        )

    @pytest.mark.parametrize("batch", ["all_miss", "all_hit", "crossing"])
    def test_stats_equal_the_pinned_values(self, pinned, batch):
        covering, act, batches = pinned
        ids = batches[batch]
        entries, stats = act.probe_instrumented(ids)
        assert decoded(act, entries) == expected_refs(covering, ids)
        assert (
            stats.node_accesses,
            stats.prefix_rejections,
            np.bincount(stats.depths).tolist(),
            digest(entries),
            digest(stats.depths),
        ) == PINNED_PROBE_STATS[batch]

    def test_batches_sit_where_their_names_say(self, pinned):
        _, act, batches = pinned
        live_share = {}
        for name, ids in batches.items():
            depths = act.probe_instrumented(ids)[1].depths
            live_share[name] = [
                float(np.mean(depths > level)) for level in range(int(depths.max()))
            ]
        # Next to no lane passes the root prefix; every lane stays live
        # down to one common value depth; a descent that starts full and
        # is under a quarter live before it ends.
        assert live_share["all_miss"] == [3 / 4096]
        assert set(live_share["all_hit"]) == {1.0}
        assert live_share["crossing"][0] == 1.0
        assert 0.0 < live_share["crossing"][-1] < 0.25
