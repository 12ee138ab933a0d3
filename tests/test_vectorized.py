"""The vectorized lat/lng -> cell id pipeline must be bit-identical to the
scalar one."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    byte_lane_leaf_ids_from_face_ij,
    face_uv_from_xyz,
    ij_from_st,
    st_from_uv,
    staged_cell_ids_from_lat_lng_arrays,
    staged_leaf_ids_from_face_ij,
)
from repro.cells import CellId, LatLng, cell_ids_from_lat_lng_arrays
from repro.cells.hilbert import LOOKUP_POS
from repro.cells.projections import MAX_SIZE, face_uv_to_xyz, st_to_uv
from repro.cells.vectorized import (
    _GUARD,
    WALK,
    WALK16,
    _face_leaf,
    _tangent_xyz,
    face_ij_from_lat_lng_arrays,
    leaf_ids_from_face_ij,
    parent_ids_at_level,
    xyz_from_lat_lng,
)


class TestAgainstScalar:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=-89.9, max_value=89.9),
        st.floats(min_value=-179.9, max_value=179.9),
    )
    def test_single_point(self, lat, lng):
        vec = cell_ids_from_lat_lng_arrays(np.asarray([lat]), np.asarray([lng]))
        assert int(vec[0]) == CellId.from_degrees(lat, lng).id

    def test_batch_world_coverage(self, rng):
        lats = rng.uniform(-89, 89, 3000)
        lngs = rng.uniform(-180, 180, 3000)
        vec = cell_ids_from_lat_lng_arrays(lats, lngs)
        for k in range(0, 3000, 61):
            assert int(vec[k]) == CellId.from_degrees(lats[k], lngs[k]).id

    def test_all_faces_hit(self, rng):
        lats = rng.uniform(-89, 89, 20000)
        lngs = rng.uniform(-180, 180, 20000)
        vec = cell_ids_from_lat_lng_arrays(lats, lngs)
        faces = set((vec >> np.uint64(61)).tolist())
        assert faces == {0, 1, 2, 3, 4, 5}

    def test_results_are_valid_leaves(self, rng):
        lats = rng.uniform(-89, 89, 500)
        lngs = rng.uniform(-180, 180, 500)
        vec = cell_ids_from_lat_lng_arrays(lats, lngs)
        assert bool((vec & np.uint64(1)).all())  # trailing marker bit set

    def test_empty_input(self):
        out = cell_ids_from_lat_lng_arrays(np.zeros(0), np.zeros(0))
        assert out.shape == (0,)
        assert out.dtype == np.uint64


class TestStages:
    def test_xyz_unit_norm(self, rng):
        lats = rng.uniform(-89, 89, 100)
        lngs = rng.uniform(-180, 180, 100)
        x, y, z = xyz_from_lat_lng(lats, lngs)
        assert np.allclose(x * x + y * y + z * z, 1.0)

    def test_face_uv_in_range(self, rng):
        lats = rng.uniform(-89, 89, 1000)
        lngs = rng.uniform(-180, 180, 1000)
        face, u, v = face_uv_from_xyz(*xyz_from_lat_lng(lats, lngs))
        assert face.min() >= 0 and face.max() <= 5
        assert np.all(np.abs(u) <= 1.0 + 1e-9)
        assert np.all(np.abs(v) <= 1.0 + 1e-9)

    def test_st_from_uv_matches_scalar(self):
        from repro.cells.projections import uv_to_st

        us = np.linspace(-1, 1, 101)
        vec = st_from_uv(us)
        for k, u in enumerate(us):
            assert vec[k] == uv_to_st(float(u))

    def test_ij_clamping(self):
        s = np.asarray([-0.1, 0.0, 0.5, 1.0, 1.1])
        ij = ij_from_st(s)
        assert ij[0] == 0
        assert ij[-1] == (1 << 30) - 1

    def test_leaf_ids_match_scalar_hilbert(self, rng):
        faces = rng.integers(0, 6, 200)
        i = rng.integers(0, 1 << 30, 200)
        j = rng.integers(0, 1 << 30, 200)
        ids = leaf_ids_from_face_ij(faces, i, j)
        for k in range(0, 200, 13):
            expected = CellId.from_face_ij(int(faces[k]), int(i[k]), int(j[k]))
            assert int(ids[k]) == expected.id


#: Where the face choice ties or the projection degenerates: poles, the
#: antimeridian, signed zeros, the |x| = |y| seams (lng = +-45, +-135), the
#: cube corners (those longitudes at lat = atan(1 / sqrt(2))), and inputs
#: that are not coordinates at all.
_SEAM_LAT = math.degrees(math.atan(1.0 / math.sqrt(2.0)))
EDGE_LATS = (90.0, -90.0, 0.0, -0.0, _SEAM_LAT, -_SEAM_LAT, 45.0, math.nan, math.inf, -math.inf)
EDGE_LNGS = (180.0, -180.0, 0.0, -0.0, 45.0, -45.0, 135.0, -135.0, 90.0, -90.0,
             math.nan, math.inf, -math.inf)
_coordinate = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _quiet(function, *args):
    """The staged oracle warns on NaN and infinite coordinates (in its
    trig calls and its cast); the kernel decides them silently.  What they
    return is what is compared."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return function(*args)


class TestAgainstStagedPipeline:
    """The in-place kernel returns the ids the staged pipeline returned."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(EDGE_LATS) | st.floats(-90.0, 90.0) | _coordinate,
                st.sampled_from(EDGE_LNGS) | st.floats(-180.0, 180.0) | _coordinate,
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_same_ids_on_any_input(self, points):
        lats = np.asarray([lat for lat, _ in points])
        lngs = np.asarray([lng for _, lng in points])
        assert np.array_equal(
            cell_ids_from_lat_lng_arrays(lats, lngs),
            _quiet(staged_cell_ids_from_lat_lng_arrays, lats, lngs),
        )

    def test_same_ids_on_the_edge_grid(self):
        lats, lngs = (a.ravel() for a in np.meshgrid(EDGE_LATS, EDGE_LNGS))
        new = cell_ids_from_lat_lng_arrays(lats, lngs)
        assert np.array_equal(
            new, _quiet(staged_cell_ids_from_lat_lng_arrays, lats, lngs)
        )
        finite = np.isfinite(lats) & np.isfinite(lngs)
        for lat, lng, raw in zip(lats[finite], lngs[finite], new[finite]):
            assert int(raw) == CellId.from_degrees(float(lat), float(lng)).id

    def test_same_ids_on_a_large_world_batch(self, rng):
        lats = np.degrees(np.arcsin(rng.uniform(-1, 1, 200_000)))
        lngs = rng.uniform(-180, 180, 200_000)
        assert np.array_equal(
            cell_ids_from_lat_lng_arrays(lats, lngs),
            staged_cell_ids_from_lat_lng_arrays(lats, lngs),
        )

    def test_projection_stage_matches_staged_stages(self, rng):
        lats = rng.uniform(-90, 90, 5000)
        lngs = rng.uniform(-180, 180, 5000)
        face, i, j = face_ij_from_lat_lng_arrays(lats, lngs)
        old_face, u, v = face_uv_from_xyz(*xyz_from_lat_lng(lats, lngs))
        assert np.array_equal(face, old_face)
        assert np.array_equal(i, ij_from_st(st_from_uv(u)))
        assert np.array_equal(j, ij_from_st(st_from_uv(v)))

    def test_walk_stage_matches_staged_walk(self, rng):
        faces = rng.integers(0, 6, 5000)
        i = rng.integers(0, 1 << 30, 5000)
        j = rng.integers(0, 1 << 30, 5000)
        assert np.array_equal(
            leaf_ids_from_face_ij(faces, i, j),
            staged_leaf_ids_from_face_ij(faces, i, j),
        )

    def test_walk_table_is_lookup_pos_rekeyed(self):
        """``WALK`` is ``LOOKUP_POS`` re-keyed, and every one of the 2**18
        ``WALK16`` entries is two ``WALK`` steps: the bytes' high nibbles,
        then their low nibbles from the orientation the first step left."""
        assert WALK.shape == (1024,)
        for orientation in range(4):
            for ij in range(256):
                looked = int(LOOKUP_POS[(ij << 2) | orientation])
                assert int(WALK[orientation * 256 + ij]) == (
                    ((looked & 3) << 8) | (looked >> 2)
                )
        assert WALK16.shape == (1 << 18,) and WALK16.dtype == np.uint32
        walk = WALK.tolist()
        composed = []
        for orientation in range(4):
            for i_byte in range(256):
                for j_byte in range(256):
                    high = walk[(orientation << 8) | (i_byte >> 4 << 4) | (j_byte >> 4)]
                    low = walk[(high & 0x300) | ((i_byte & 15) << 4) | (j_byte & 15)]
                    composed.append(
                        ((low >> 8) << 16) | ((high & 0xFF) << 8) | (low & 0xFF)
                    )
        assert WALK16.tolist() == composed


#: Leaf coordinates where a walk step's byte changes: 0, the largest leaf
#: coordinate, and both sides of every byte edge.
_BYTE_EDGES = sorted({0, MAX_SIZE - 1} | {(1 << 8 * k) + d for k in (1, 2, 3) for d in (-1, 0)})
_leaf_coordinate = st.sampled_from(_BYTE_EDGES) | st.integers(0, MAX_SIZE - 1)


class TestByteLaneWalkParity:
    """``leaf_ids_from_face_ij`` (four byte-pair steps through ``WALK16``)
    returns the ids of the eight-step byte-lane walk it replaced
    (``oracles.byte_lane_leaf_ids_from_face_ij``), in the input's shape."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), _leaf_coordinate, _leaf_coordinate),
            max_size=40,
        )
    )
    def test_same_ids_on_any_face_and_coordinates(self, cells):
        faces = np.asarray([face for face, _, _ in cells], dtype=np.int64)
        i = np.asarray([i for _, i, _ in cells], dtype=np.int64)
        j = np.asarray([j for _, _, j in cells], dtype=np.int64)
        ids = leaf_ids_from_face_ij(faces, i, j)
        assert ids.dtype == np.uint64 and ids.shape == faces.shape
        assert np.array_equal(ids, byte_lane_leaf_ids_from_face_ij(faces, i, j))

    @pytest.mark.parametrize("face", range(6))
    def test_every_byte_edge_on_every_face(self, face):
        i, j = (a.ravel() for a in np.meshgrid(_BYTE_EDGES, _BYTE_EDGES))
        faces = np.full(len(i), face)
        ids = leaf_ids_from_face_ij(faces, i, j)
        assert np.array_equal(ids, byte_lane_leaf_ids_from_face_ij(faces, i, j))
        for raw, ii, jj in zip(ids[::5], i[::5], j[::5]):
            assert int(raw) == CellId.from_face_ij(face, int(ii), int(jj)).id

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5), _leaf_coordinate, _leaf_coordinate)
    def test_zero_dimensional_input(self, face, i, j):
        ids = leaf_ids_from_face_ij(np.int64(face), np.int64(i), np.int64(j))
        assert ids.shape == () and ids.dtype == np.uint64
        assert int(ids) == int(byte_lane_leaf_ids_from_face_ij(face, i, j))
        assert int(ids) == CellId.from_face_ij(face, i, j).id

    def test_empty_and_two_dimensional_input(self, rng):
        empty = leaf_ids_from_face_ij(np.zeros(0), np.zeros(0), np.zeros(0))
        assert empty.shape == (0,) and empty.dtype == np.uint64
        faces = rng.integers(0, 6, (3, 7))
        i = rng.choice(_BYTE_EDGES, (3, 7))
        j = rng.integers(0, MAX_SIZE, (3, 7))
        ids = leaf_ids_from_face_ij(faces, i, j)
        assert ids.shape == (3, 7)
        assert np.array_equal(ids, byte_lane_leaf_ids_from_face_ij(faces, i, j))


def _assert_exact_ids(lats, lngs, every=1):
    """The kernel's ids (computed with every warning an error) are the
    staged pipeline's, and ``CellId.from_degrees``'s on every ``every``-th
    point it accepts."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
    assert np.array_equal(ids, _quiet(staged_cell_ids_from_lat_lng_arrays, lats, lngs))
    accepted = np.flatnonzero((np.abs(lats) <= 90.0) & (np.abs(lngs) <= 180.0))
    for k in accepted[::every]:
        assert int(ids[k]) == CellId.from_degrees(float(lats[k]), float(lngs[k])).id


def _tangent_path(lats, lngs):
    """Face, leaf coordinates and the guard's verdict (``True``: go the
    exact way) of the tangent projection alone."""
    face, leaf, off_edge = _face_leaf(_tangent_xyz(lats, lngs))
    return face, leaf, (off_edge < _GUARD).any(axis=0)


def _ulps_around(values, steps):
    """``values`` and their ``steps`` nearest doubles on either side."""
    out, up, down = [values], values, values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestGuard:
    """The tangent projection answers only where no leaf edge is within
    ``_GUARD`` of it; everything else goes the exact way, so the ids are
    the staged pipeline's on exactly the inputs that could tell the two
    apart."""

    def test_points_on_leaf_edges_and_their_neighbours(self, rng):
        faces = rng.integers(0, 6, 400)
        ij = rng.integers(0, MAX_SIZE + 1, (400, 2))
        # Face edges (u = +-1, where the face choice ties) and the u = 0
        # line (the mirror of the quadratic transform).
        ij[:200, 0] = rng.choice([0, MAX_SIZE // 2, MAX_SIZE], 200)
        points = [
            LatLng.from_xyz(
                *face_uv_to_xyz(int(face), st_to_uv(i / MAX_SIZE), st_to_uv(j / MAX_SIZE))
            )
            for face, (i, j) in zip(faces, ij)
        ]
        lats = np.asarray([point.lat for point in points])
        lngs = np.asarray([point.lng for point in points])
        steps = 4
        lats, lngs = (
            np.concatenate([_ulps_around(lats, steps), np.tile(lats, 2 * steps)]),
            np.concatenate(
                [np.tile(lngs, 2 * steps + 1), _ulps_around(lngs, steps)[len(lngs) :]]
            ),
        )
        # They sit within ~1e-6 leaf units of an edge: the guard takes them.
        assert _tangent_path(lats, lngs)[2].mean() > 0.9
        _assert_exact_ids(lats, lngs, every=7)

    def test_edge_grid_and_coordinates_out_of_range(self):
        lats, lngs = (a.ravel() for a in np.meshgrid(EDGE_LATS, EDGE_LNGS))
        wild = [
            1e6, -1e300, 540.0, -540.0, 1e308, 180.0, 360.0, 5e-324, -1e-310,
            np.nextafter(90.0, 91.0), np.nextafter(-90.0, -91.0),
            np.nextafter(180.0, 181.0), np.nextafter(-180.0, -181.0),
        ]
        wild_lats, wild_lngs = (
            a.ravel() for a in np.meshgrid(wild + [40.7], wild + [-74.0])
        )
        _assert_exact_ids(
            np.concatenate([lats, wild_lats]), np.concatenate([lngs, wild_lngs])
        )

    def test_fast_path_error_is_a_tenth_of_the_guard(self, rng):
        lats = np.degrees(np.arcsin(rng.uniform(-1, 1, 1_000_000)))
        lngs = rng.uniform(-180, 180, 1_000_000)
        face, leaf, exact = _tangent_path(lats, lngs)
        exact_face, u, v = face_uv_from_xyz(*xyz_from_lat_lng(lats, lngs))
        same = face == exact_face
        # A face tie puts u or v at +-1: a leaf edge, so the guard catches it.
        assert exact[~same].all()
        exact_leaf = np.stack([st_from_uv(u[same]), st_from_uv(v[same])]) * MAX_SIZE
        assert np.abs(leaf[:, same] - exact_leaf).max() < _GUARD / 10
        assert exact.sum() < 1e-4 * len(lats)
        _assert_exact_ids(lats, lngs, every=10_007)


class TestShapes:
    """Equal shapes of any rank pass through; unequal shapes are an error
    (they used to broadcast silently)."""

    def test_rank_is_preserved(self):
        lats = np.asarray([[40.7, 40.8, 40.9], [10.0, -20.0, 89.0]])
        lngs = np.asarray([[-74.0, -73.9, -73.8], [100.0, -170.0, 3.0]])
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        assert ids.shape == (2, 3) and ids.dtype == np.uint64
        assert np.array_equal(
            ids.ravel(), cell_ids_from_lat_lng_arrays(lats.ravel(), lngs.ravel())
        )

    def test_zero_dimensional_input(self):
        scalar = cell_ids_from_lat_lng_arrays(np.float64(40.7), np.float64(-74.0))
        assert scalar.shape == () and scalar.dtype == np.uint64
        assert int(scalar) == CellId.from_degrees(40.7, -74.0).id

    @pytest.mark.parametrize(
        "lats, lngs",
        [
            (np.asarray([40.7, 40.8]), np.asarray([-74.0])),
            (np.asarray([40.7]), np.asarray([-74.0, -73.9])),
            (np.asarray([[40.7, 40.8]]), np.asarray([-74.0, -73.9])),
            (np.asarray([40.7, 40.8]), np.float64(-74.0)),
        ],
    )
    def test_mismatched_shapes_raise(self, lats, lngs):
        with pytest.raises(ValueError, match="same shape"):
            cell_ids_from_lat_lng_arrays(lats, lngs)


class TestFaceIjDecode:
    """face_ij_from_leaf_ids must invert the vectorized encode exactly."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-89.9, max_value=89.9),
        st.floats(min_value=-179.9, max_value=179.9),
    )
    def test_roundtrip_single(self, lat, lng):
        from repro.cells.vectorized import face_ij_from_leaf_ids

        leaf = CellId.from_degrees(lat, lng)
        face, i, j = face_ij_from_leaf_ids(
            np.asarray([leaf.id], dtype=np.uint64)
        )
        assert (int(face[0]), int(i[0]), int(j[0])) == leaf.to_face_ij()

    def test_batch_matches_scalar_decode(self, rng):
        from repro.cells.vectorized import face_ij_from_leaf_ids

        lats = rng.uniform(-89, 89, 4000)
        lngs = rng.uniform(-180, 180, 4000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        face, i, j = face_ij_from_leaf_ids(ids)
        for k in range(0, 4000, 97):
            assert CellId(int(ids[k])).to_face_ij() == (
                int(face[k]), int(i[k]), int(j[k])
            )

    def test_encode_decode_roundtrip_arrays(self, rng):
        from repro.cells.vectorized import face_ij_from_leaf_ids

        lats = rng.uniform(-89, 89, 2000)
        lngs = rng.uniform(-180, 180, 2000)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        face, i, j = face_ij_from_leaf_ids(ids)
        again = leaf_ids_from_face_ij(face, i, j)
        assert np.array_equal(again, ids)


class TestBoundRectsForCellIds:
    """The batched bound-rect path vs the scalar one (conservative pad)."""

    def test_matches_scalar_rects(self, rng):
        from repro.cells.cell import bound_rects_for_cell_ids, cell_bound_rect

        lats = rng.uniform(-85, 85, 120)
        lngs = rng.uniform(-179, 179, 120)
        ids = cell_ids_from_lat_lng_arrays(lats, lngs)
        cells = [
            CellId(int(raw)).parent(level)
            for raw in ids[:40]
            for level in (6, 12, 20, 27, 30)
        ]
        raw_ids = np.asarray([cell.id for cell in cells], dtype=np.uint64)
        lng_lo, lng_hi, lat_lo, lat_hi = bound_rects_for_cell_ids(raw_ids)
        for n, cell in enumerate(cells):
            rect = cell_bound_rect(cell)
            # Identical up to trig rounding, far below the bulge pad.
            assert abs(rect.lng_lo - lng_lo[n]) < 1e-9
            assert abs(rect.lng_hi - lng_hi[n]) < 1e-9
            assert abs(rect.lat_lo - lat_lo[n]) < 1e-9
            assert abs(rect.lat_hi - lat_hi[n]) < 1e-9

    def test_pole_and_antimeridian_fallbacks(self):
        from repro.cells.cell import bound_rects_for_cell_ids, cell_bound_rect

        cells = [
            CellId.from_degrees(89.99, 0.0).parent(2),  # north face center
            CellId.from_degrees(-89.99, 0.0).parent(2),  # south face center
            CellId.from_degrees(0.0, 179.99).parent(3),  # near antimeridian
        ]
        raw_ids = np.asarray([cell.id for cell in cells], dtype=np.uint64)
        lng_lo, lng_hi, lat_lo, lat_hi = bound_rects_for_cell_ids(raw_ids)
        for n, cell in enumerate(cells):
            rect = cell_bound_rect(cell)
            assert abs(rect.lng_lo - lng_lo[n]) < 1e-9
            assert abs(rect.lng_hi - lng_hi[n]) < 1e-9
            assert abs(rect.lat_lo - lat_lo[n]) < 1e-9
            assert abs(rect.lat_hi - lat_hi[n]) < 1e-9

    def test_empty_input(self):
        from repro.cells.cell import bound_rects_for_cell_ids

        out = bound_rects_for_cell_ids(np.zeros(0, dtype=np.uint64))
        assert all(len(a) == 0 for a in out)

    def test_bit_identical_to_choose_projection(self, rng, monkeypatch):
        """The chunked flat-gather projection == the ``np.choose`` one it
        replaced, bit for bit: every face at levels 0-30, with the cells
        around each face center (the poles on faces 2 and 5) and along the
        antimeridian (the middle column of face 3, the half-lines of faces
        2 and 5)."""
        import repro.cells.cell as cell

        half = MAX_SIZE // 2
        near = np.asarray([half - 1, half], dtype=np.int64)
        leaves = []
        for face in range(6):
            i = rng.integers(0, MAX_SIZE, 64)
            j = rng.integers(0, MAX_SIZE, 64)
            # Face centers, and cells straddling the center row / column.
            random = rng.integers(0, MAX_SIZE, 10)
            i = np.concatenate([i, np.repeat(near, 2), near, random[:8]])
            j = np.concatenate([j, np.tile(near, 2), random[8:], np.repeat(near, 4)])
            leaves.append(leaf_ids_from_face_ij(np.full(len(i), face), i, j))
        leaves = np.concatenate(leaves)
        ids = np.concatenate([parent_ids_at_level(leaves, level) for level in range(31)])
        # Chunk edges fall inside the input, too.
        monkeypatch.setattr(cell, "_RECT_CHUNK", 1000)
        got = cell.bound_rects_for_cell_ids(ids)
        expected = oracles.bound_rects_choose(ids)
        for new, old in zip(got, expected):
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
        lng_lo, lng_hi, lat_lo, lat_hi = got
        wide = (lng_lo <= -180.0) & (lng_hi >= 180.0)
        faces = (ids >> np.uint64(61)).astype(np.int64)
        # The fallbacks fired: antimeridian cells on face 3, poles on 2 / 5.
        assert wide[faces == 3].sum() > 100
        assert (lat_hi[faces == 2] >= 90.0).sum() > 30
        assert (lat_lo[faces == 5] <= -90.0).sum() > 30


class TestRangeBounds:
    """Vectorized range_min/range_max and parent parity with the scalar
    CellId."""

    @settings(max_examples=60, deadline=None)
    @given(
        lat=st.floats(min_value=-85.0, max_value=85.0),
        lng=st.floats(min_value=-180.0, max_value=180.0),
        level=st.integers(min_value=0, max_value=30),
    )
    def test_matches_scalar_cellid(self, lat, lng, level):
        from repro.cells.vectorized import (
            parent_ids_at_level,
            range_bounds_from_cell_ids,
        )

        leaf = CellId.from_degrees(lat, lng)
        cell = leaf.parent(level)
        lo, hi = range_bounds_from_cell_ids(
            np.asarray([cell.id], dtype=np.uint64)
        )
        assert int(lo[0]) == cell.range_min().id
        assert int(hi[0]) == cell.range_max().id
        for deeper in (leaf, leaf.parent((level + 30) // 2), cell):
            ids = np.asarray([deeper.id], dtype=np.uint64)
            assert int(parent_ids_at_level(ids, level)[0]) == cell.id

    def test_mixed_levels_batch(self):
        from repro.cells.vectorized import range_bounds_from_cell_ids

        cells = [
            CellId.from_degrees(40.7, -74.0).parent(level)
            for level in (0, 5, 12, 20, 30)
        ]
        ids = np.asarray([cell.id for cell in cells], dtype=np.uint64)
        lo, hi = range_bounds_from_cell_ids(ids)
        for n, cell in enumerate(cells):
            assert int(lo[n]) == cell.range_min().id
            assert int(hi[n]) == cell.range_max().id

    def test_empty(self):
        from repro.cells.vectorized import range_bounds_from_cell_ids

        lo, hi = range_bounds_from_cell_ids(np.zeros(0, dtype=np.uint64))
        assert len(lo) == 0 and len(hi) == 0


# ----------------------------------------------------------------------
# The gap tiler
# ----------------------------------------------------------------------

_LAST_LEAF_POS = (1 << 60) - 1


@st.composite
def any_cell(draw) -> CellId:
    """Cells on every face and level, biased to the ends of a face (leaf
    positions 0 and 2**60 - 1) where alignment and wrap-around bite."""
    face = draw(st.integers(0, 5))
    pos = draw(
        st.sampled_from([0, 1, _LAST_LEAF_POS - 1, _LAST_LEAF_POS])
        | st.integers(0, _LAST_LEAF_POS)
    )
    leaf = CellId((face << 61) | (pos << 1) | 1)
    return leaf.parent(draw(st.sampled_from([0, 1, 29, 30]) | st.integers(0, 30)))


def _tiles(intervals: list[tuple[int, int]]) -> list[list[int]]:
    """``tile_leaf_ranges`` over inclusive leaf intervals, per interval."""
    from repro.cells.vectorized import tile_leaf_ranges

    cells, owners = tile_leaf_ranges(
        np.asarray([lo for lo, _ in intervals], dtype=np.uint64),
        np.asarray([hi + 2 for _, hi in intervals], dtype=np.uint64),
    )
    return [
        sorted(cells[owners == which].tolist()) for which in range(len(intervals))
    ]


class TestTileLeafRanges:
    """The one gap tiler equals each of the three scalar tilers it
    replaced (kept in ``oracles`` / ``repro.cells.cellid``)."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(any_cell(), any_cell()), min_size=1, max_size=6))
    def test_matches_the_greedy_interval_tiler(self, pairs):
        from oracles import cells_covering_leaf_range

        intervals = []
        for a, b in pairs:
            if a.face != b.face:
                b = a  # the scalar tilers climb parents, which stay on a face
            lo = min(a.range_min().id, b.range_min().id)
            intervals.append((lo, max(a.range_max().id, b.range_max().id)))
        expected = [
            sorted(cell.id for cell in cells_covering_leaf_range(lo, hi))
            for lo, hi in intervals
        ]
        assert _tiles(intervals) == expected

    @settings(max_examples=100, deadline=None)
    @given(any_cell(), st.lists(st.lists(st.integers(0, 3), max_size=5), max_size=6))
    def test_matches_the_descent_around_covered_cells(self, cell, paths):
        from oracles import uncovered_children

        covered: list[CellId] = []
        for path in paths:
            descendant = cell
            for position in path[: 30 - cell.level]:
                descendant = descendant.child(position)
            if not any(
                c.contains(descendant) or descendant.contains(c) for c in covered
            ):
                covered.append(descendant)
        covered.sort()
        # The gaps of ``cell``: before each covered cell, and after the last.
        starts = [cell.range_min().id] + [c.range_max().id + 2 for c in covered]
        stops = [c.range_min().id - 2 for c in covered] + [cell.range_max().id]
        tiled = sorted(sum(_tiles(list(zip(starts, stops))), []))
        assert tiled == sorted(
            gap.id for gap in uncovered_children(cell, {c.id for c in covered})
        )

    @settings(max_examples=100, deadline=None)
    @given(any_cell(), st.lists(st.integers(0, 3), max_size=30))
    def test_matches_cell_difference(self, ancestor, path):
        from repro.cells import cell_difference

        descendant = ancestor
        for position in path[: 30 - ancestor.level]:
            descendant = descendant.child(position)
        before = (ancestor.range_min().id, descendant.range_min().id - 2)
        after = (descendant.range_max().id + 2, ancestor.range_max().id)
        assert sorted(sum(_tiles([before, after]), [])) == sorted(
            piece.id for piece in cell_difference(ancestor, descendant)
        )

    def test_whole_faces_leaves_and_empty_intervals(self):
        from repro.cells.vectorized import tile_leaf_ranges

        faces = [CellId.face_cell(face) for face in range(6)]
        leaf = CellId.from_degrees(40.7, -74.0)
        neighbour = CellId(leaf.id + 2)
        lo = [face.range_min().id for face in faces] + [leaf.id, leaf.id, leaf.id]
        end = [face.range_max().id + 2 for face in faces] + [
            leaf.id + 2, neighbour.id + 2, leaf.id,
        ]
        cells, owners = tile_leaf_ranges(
            np.asarray(lo, dtype=np.uint64), np.asarray(end, dtype=np.uint64)
        )
        by_owner = {
            which: sorted(cells[owners == which].tolist()) for which in range(9)
        }
        assert [by_owner[face] for face in range(6)] == [[f.id] for f in faces]
        assert by_owner[6] == [leaf.id]
        assert by_owner[7] in ([leaf.id, neighbour.id], [leaf.parent(29).id])
        assert by_owner[8] == []  # lo == end: empty
        # The whole sphere as one interval: six face cells.
        cells, _ = tile_leaf_ranges(
            np.asarray([1], dtype=np.uint64),
            np.asarray([faces[5].range_max().id + 2], dtype=np.uint64),
        )
        assert sorted(cells.tolist()) == [face.id for face in faces]
