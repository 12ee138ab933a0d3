"""Zero-copy flat snapshots: one probe generation in contiguous buffers.

The paper's premise is a main-memory index whose hot path is a handful of
array gathers, and every probe-side structure here already *is* a numpy
array — the ACT node pool, the lookup table, the refinement engine's
packed edge buckets.  This module packs everything one
:class:`~repro.core.builder.ProbeView` generation needs to serve — those
arrays plus the ACT face tables, the covering's cell/reference arrays and
the polygon ring geometry — into one contiguous ``uint8`` blob with a
versioned JSON header, so a consumer *attaches* instead of rebuilding:

* ``save_index``/``load_index`` (FORMAT_VERSION 3) write the blob as a
  single ``.npy`` payload and restart from disk via
  ``np.load(mmap_mode="r")`` — no store build, and the super covering is
  the blob's three covering buffers as they are;
* ``ShardedJoinService`` publishes each layer as one shared-memory
  segment and every shard lane maps it — shard spawn/respawn is a buffer
  attach, not a store build.

Container layout (all offsets relative to the payload base, which is the
first 64-byte boundary after the header)::

    magic "RFLAT\\x01\\x00\\x00" | header length (uint64 LE) | JSON header
    | pad to 64 | buffer 0 | pad | buffer 1 | ...

The JSON header carries ``meta`` (format/build configuration) and one
``(name, dtype, shape, offset, nbytes)`` record per buffer; every buffer
starts 64-byte aligned so dtype views are valid on mmap'd and
shared-memory attachments alike.

Built and attached indexes are the same classes: :func:`attach_index`
hands the snapshot's buffers to the attach constructors of
:class:`~repro.core.act.AdaptiveCellTrie` and
:class:`~repro.core.lookup_table.LookupTable` and returns an ordinary
:class:`~repro.core.builder.PolygonIndex` holding the snapshot, so there
is one probe kernel and one decode path whichever way an index came to
be — the parity suite in ``tests/test_flat.py`` compares the two
constructions bit for bit.
"""

from __future__ import annotations

import json
import math
import pathlib
import struct
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.act import AdaptiveCellTrie
from repro.core.lookup_table import LookupTable
from repro.core.super_covering import SuperCovering
from repro.geo.polygon import Polygon, Ring
from repro.geo.refine import RefinementEngine, _FlatBucketTable

if TYPE_CHECKING:  # repro.core.builder imports this module
    from repro.core.builder import PolygonIndex

#: First 8 bytes of every flat snapshot blob.
FLAT_MAGIC = b"RFLAT\x01\x00\x00"

#: Version of the flat container layout itself (independent of the
#: ``serialize.FORMAT_VERSION`` that wraps it on disk).
FLAT_FORMAT_VERSION = 1

#: Buffer alignment inside the blob; 64 keeps any numpy dtype view valid
#: and buffers cache-line aligned.
_ALIGN = 64

#: Geometry buffers, first in a packed snapshot: polygon ring geometry
#: plus the refinement engine's packed edge-bucket table.  The fourteen
#: ``ref_*`` arrays describe their own bucketing (``ref_num_buckets``,
#: ``ref_inv_bucket_height``, ``ref_edge_start`` per polygon): since
#: 1.15.0 a polygon is packed with one bucket per non-horizontal edge
#: (up to 1,024) instead of at most 64, which makes these buffers about
#: 3x larger and changes nothing else — a blob written earlier is
#: adopted with the coarser buckets it carries and decides identically,
#: so no format bump.
FLAT_GEOMETRY_BUFFERS: dict[str, str] = {
    "poly_ring_index": "<i8",
    "ring_vertex_index": "<i8",
    "ring_lngs": "<f8",
    "ring_lats": "<f8",
    "ref_row_offset": "<i8",
    "ref_num_buckets": "<i8",
    "ref_lat_origin": "<f8",
    "ref_inv_bucket_height": "<f8",
    "ref_mbr_lng_lo": "<f8",
    "ref_mbr_lng_hi": "<f8",
    "ref_mbr_lat_lo": "<f8",
    "ref_mbr_lat_hi": "<f8",
    "ref_edge_start": "<i8",
    "ref_y0": "<f8",
    "ref_y1": "<f8",
    "ref_x0": "<f8",
    "ref_dx": "<f8",
    "ref_inv_dy": "<f8",
}

#: Coverage buffers, after the geometry: the ACT store, its lookup table
#: and the covering.  ``cell_ids | ref_offsets | packed_refs`` ARE
#: the :class:`~repro.core.super_covering.SuperCovering` (written as they
#: are, wrapped on attach).  ``cell_ids`` is ascending in every blob
#: written since 1.14.0; older files stored build order and are sorted
#: once by :meth:`SuperCovering.attach` — no format bump.
FLAT_COVERAGE_BUFFERS: dict[str, str] = {
    "act_pool": "<u8",
    "act_faces": "<u8",
    "act_face_values": "<u8",
    "lut": "<u4",
    "cell_ids": "<u8",
    "ref_offsets": "<i8",
    "packed_refs": "<u4",
}

#: Extension buffers appended by repro.core.serialize for dynamic
#: indexes: the pending delta log (ring-packed geometry) plus the
#: persisted training configuration.
FLAT_EXTENSION_BUFFERS: dict[str, str] = {
    "delta_kinds": "|i1",
    "delta_pids": "<i8",
    "delta_ring_index": "<i8",
    "delta_vertex_index": "<i8",
    "delta_lngs": "<f8",
    "delta_lats": "<f8",
    "training_cell_ids": "<u8",
}

#: The flat container's buffer contract: every buffer a packed snapshot
#: may carry, with its wire dtype (little-endian numpy dtype strings, as
#: written into the RFLAT header table), merged from the disjoint
#: geometry / coverage / extension sections above.  ``repro.analysis``'s
#: flat-contract rule checks packing sites against this table (resolving
#: the section merge and checking the sections stay disjoint), and
#: :func:`validate_buffers` enforces it at runtime — a dtype drift here
#: silently corrupts every attached reader, so it must never happen by
#: accident.
FLAT_BUFFER_SPEC: dict[str, str] = {
    **FLAT_GEOMETRY_BUFFERS,
    **FLAT_COVERAGE_BUFFERS,
    **FLAT_EXTENSION_BUFFERS,
}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def validate_buffers(buffers: Mapping[str, np.ndarray]) -> None:
    """Check a packed buffer dict against :data:`FLAT_BUFFER_SPEC`.

    Raises ``ValueError`` on an unknown buffer name or a dtype that does
    not match the contract (after the little-endian normalization that
    ``to_bytes`` performs anyway via ``ascontiguousarray``).
    """
    problems: list[str] = []
    for name, array in buffers.items():
        expected = FLAT_BUFFER_SPEC.get(name)
        if expected is None:
            problems.append(f"unknown buffer {name!r}")
            continue
        actual = np.asarray(array).dtype
        if actual != np.dtype(expected):
            problems.append(
                f"buffer {name!r}: dtype {actual.str} != spec {expected}"
            )
    if problems:
        raise ValueError(
            "flat buffer contract violation: " + "; ".join(problems)
        )


# ----------------------------------------------------------------------
# Geometry packing (shared with repro.core.serialize)
# ----------------------------------------------------------------------


def pack_polygon_geometry(
    polygons: Sequence[Polygon | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ring-packed geometry ``(ring index, vertex index, lngs, lats)``.

    ``ring_index[i]:ring_index[i+1]`` are polygon ``i``'s rings (outer
    first); an empty span marks a ``None`` slot (a hole in the id space).
    """
    ring_index = np.zeros(len(polygons) + 1, dtype=np.int64)
    rings: list[Ring] = []
    for slot, polygon in enumerate(polygons):
        if polygon is not None:
            rings.extend(polygon.rings)
        ring_index[slot + 1] = len(rings)
    vertex_index = np.zeros(len(rings) + 1, dtype=np.int64)
    for slot, ring in enumerate(rings):
        vertex_index[slot + 1] = vertex_index[slot] + ring.num_vertices
    if rings:
        lngs = np.concatenate([ring.lngs for ring in rings])
        lats = np.concatenate([ring.lats for ring in rings])
    else:
        lngs = np.zeros(0, dtype=np.float64)
        lats = np.zeros(0, dtype=np.float64)
    return ring_index, vertex_index, lngs, lats


def unpack_polygon_geometry(
    ring_index: np.ndarray,
    vertex_index: np.ndarray,
    lngs: np.ndarray,
    lats: np.ndarray,
) -> list[Polygon | None]:
    """Rebuild polygons from ring-packed geometry without re-validation.

    The vertex arrays are kept as views into the source buffers (mmap or
    shared memory), so reconstructing a snapshot's polygon set allocates
    no per-vertex Python objects and copies no geometry.
    """
    polygons: list[Polygon | None] = []
    for slot in range(len(ring_index) - 1):
        first = int(ring_index[slot])
        last = int(ring_index[slot + 1])
        if first == last:
            polygons.append(None)
            continue
        rings: list[Ring] = []
        for row in range(first, last):
            lo = int(vertex_index[row])
            hi = int(vertex_index[row + 1])
            ring = Ring.__new__(Ring)
            ring.lngs = lngs[lo:hi]
            ring.lats = lats[lo:hi]
            ring._mbr = None
            rings.append(ring)
        polygon = Polygon.__new__(Polygon)
        polygon.outer = rings[0]
        polygon.holes = rings[1:]
        polygon._mbr = None
        polygon._edge_cache = None
        polygon._refine_cache = None
        polygon._relation_cache = None
        polygon._cover_cache = None
        polygons.append(polygon)
    return polygons


# ----------------------------------------------------------------------
# The container
# ----------------------------------------------------------------------


class FlatSnapshot:
    """A named-buffer container with a versioned JSON header.

    ``buffers`` maps buffer names to numpy arrays — views into one
    attached blob, or the original arrays on the packing side.  ``owner``
    pins whatever object keeps an attached blob's memory alive (the
    ``np.memmap`` or the ``SharedMemory`` handle)."""

    __slots__ = ("meta", "buffers", "owner")

    def __init__(
        self,
        meta: Mapping[str, object],
        buffers: Mapping[str, np.ndarray],
        owner: object = None,
    ):
        self.meta = dict(meta)
        self.buffers = dict(buffers)
        self.owner = owner

    # -- serialization --------------------------------------------------

    def to_bytes(self) -> np.ndarray:
        """The snapshot as one contiguous ``uint8`` blob."""
        records: list[dict[str, object]] = []
        payload: list[tuple[int, np.ndarray]] = []
        offset = 0
        for name, array in self.buffers.items():
            array = np.ascontiguousarray(array)
            offset = _align(offset)
            records.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": int(array.nbytes),
                }
            )
            payload.append((offset, array))
            offset += array.nbytes
        header = json.dumps({"meta": self.meta, "buffers": records}).encode("utf-8")
        base = _align(len(FLAT_MAGIC) + 8 + len(header))
        blob = np.zeros(base + offset, dtype=np.uint8)
        blob[: len(FLAT_MAGIC)] = np.frombuffer(FLAT_MAGIC, dtype=np.uint8)
        blob[len(FLAT_MAGIC) : len(FLAT_MAGIC) + 8] = np.frombuffer(
            struct.pack("<Q", len(header)), dtype=np.uint8
        )
        blob[len(FLAT_MAGIC) + 8 : len(FLAT_MAGIC) + 8 + len(header)] = np.frombuffer(
            header, dtype=np.uint8
        )
        for record_offset, array in payload:
            lo = base + record_offset
            blob[lo : lo + array.nbytes] = array.reshape(-1).view(np.uint8)
        return blob

    @classmethod
    def from_buffer(cls, blob, owner: object = None) -> "FlatSnapshot":
        """Attach to a blob (ndarray, memmap, or buffer) without copying.

        The header and every buffer record are checked against the blob's
        length before any view is taken, so a truncated or corrupt blob
        raises ``ValueError`` naming the first bad buffer instead of
        failing somewhere inside numpy (or, worse, mis-probing).  Trailing
        bytes are fine — shared-memory segments are page-rounded.
        """
        if not isinstance(blob, np.ndarray):
            blob = np.frombuffer(blob, dtype=np.uint8)
        elif blob.dtype != np.uint8:
            blob = blob.view(np.uint8)
        magic = blob[: len(FLAT_MAGIC)].tobytes()
        if magic != FLAT_MAGIC:
            raise ValueError(f"not a flat snapshot (magic {magic!r})")
        header_lo = len(FLAT_MAGIC) + 8
        if len(blob) < header_lo:
            raise ValueError(
                f"truncated/corrupt flat snapshot: {len(blob)} bytes end "
                "inside the header length field"
            )
        header_len = struct.unpack("<Q", blob[len(FLAT_MAGIC) : header_lo].tobytes())[0]
        if header_len > len(blob) - header_lo:
            raise ValueError(
                f"truncated/corrupt flat snapshot: header of {header_len} "
                f"bytes overruns the {len(blob)}-byte blob"
            )
        try:
            header = json.loads(blob[header_lo : header_lo + header_len].tobytes())
            meta, records = header["meta"], header["buffers"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"truncated/corrupt flat snapshot: unreadable header ({exc})"
            ) from None
        base = _align(header_lo + header_len)
        end = len(blob)
        buffers: dict[str, np.ndarray] = {}
        for record in records:
            name = record["name"]
            dtype = np.dtype(record["dtype"])
            shape = tuple(record["shape"])
            nbytes = record["nbytes"]
            lo = base + record["offset"]
            if nbytes != math.prod(shape) * dtype.itemsize:
                raise ValueError(
                    f"truncated/corrupt flat snapshot: buffer {name!r} "
                    f"declares {nbytes} bytes for shape {shape} of {dtype.str}"
                )
            if not base <= lo <= lo + nbytes <= end:
                raise ValueError(
                    f"truncated/corrupt flat snapshot: buffer {name!r} spans "
                    f"bytes [{lo}, {lo + nbytes}) of a {end}-byte blob whose "
                    f"payload starts at {base}"
                )
            buffers[name] = blob[lo : lo + nbytes].view(dtype).reshape(shape)
        return cls(meta, buffers, owner=owner if owner is not None else blob)

    @property
    def nbytes(self) -> int:
        """Total payload size across all buffers (header excluded)."""
        return int(sum(int(array.nbytes) for array in self.buffers.values()))

    def save(self, path: str | pathlib.Path) -> None:
        """Write the blob as a single ``.npy`` payload (mmap-attachable)."""
        with open(path, "wb") as handle:
            np.save(handle, self.to_bytes())

    @classmethod
    def load(
        cls, path: str | pathlib.Path, mmap_mode: str | None = "r"
    ) -> "FlatSnapshot":
        """Attach to a saved snapshot; ``mmap_mode="r"`` maps, not reads."""
        blob = np.load(path, mmap_mode=mmap_mode)
        return cls.from_buffer(blob, owner=blob)

    def to_shared_memory(self):
        """Copy the blob into a fresh shared-memory segment (caller owns)."""
        from multiprocessing import shared_memory

        blob = self.to_bytes()
        segment = shared_memory.SharedMemory(create=True, size=max(1, int(blob.nbytes)))
        np.frombuffer(segment.buf, dtype=np.uint8, count=blob.nbytes)[:] = blob
        return segment


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


def _pack_refiner_table(table: _FlatBucketTable) -> dict[str, np.ndarray]:
    return {
        "ref_row_offset": table.row_offset,
        "ref_num_buckets": table.num_buckets,
        "ref_lat_origin": table.lat_origin,
        "ref_inv_bucket_height": table.inv_bucket_height,
        "ref_mbr_lng_lo": table.mbr_lng_lo,
        "ref_mbr_lng_hi": table.mbr_lng_hi,
        "ref_mbr_lat_lo": table.mbr_lat_lo,
        "ref_mbr_lat_hi": table.mbr_lat_hi,
        "ref_edge_start": table.edge_start,
        "ref_y0": table.y0,
        "ref_y1": table.y1,
        "ref_x0": table.x0,
        "ref_dx": table.dx,
        "ref_inv_dy": table.inv_dy,
    }


def _attach_refiner_table(
    buffers: Mapping[str, np.ndarray],
) -> _FlatBucketTable | None:
    """The refinement bucket table over a snapshot's ``ref_*`` buffers
    (views, no copy); ``None`` when the snapshot carries no such table."""
    if "ref_edge_start" not in buffers:
        return None
    table = _FlatBucketTable.__new__(_FlatBucketTable)
    table.row_offset = buffers["ref_row_offset"]
    table.num_buckets = buffers["ref_num_buckets"]
    table.lat_origin = buffers["ref_lat_origin"]
    table.inv_bucket_height = buffers["ref_inv_bucket_height"]
    table.mbr_lng_lo = buffers["ref_mbr_lng_lo"]
    table.mbr_lng_hi = buffers["ref_mbr_lng_hi"]
    table.mbr_lat_lo = buffers["ref_mbr_lat_lo"]
    table.mbr_lat_hi = buffers["ref_mbr_lat_hi"]
    table.edge_start = buffers["ref_edge_start"]
    table.y0 = buffers["ref_y0"]
    table.y1 = buffers["ref_y1"]
    table.x0 = buffers["ref_x0"]
    table.dx = buffers["ref_dx"]
    table.inv_dy = buffers["ref_inv_dy"]
    return table


def pack_index(index: PolygonIndex) -> FlatSnapshot:
    """Pack one ACT-backed index generation into buffers.

    The geometry section (ring geometry for the full polygon table plus
    the refinement engine's bucket table) comes first, then the coverage
    section (the ACT store, its lookup table and the covering's three
    arrays).  An attached index returns the snapshot it holds — it is
    dropped the moment the store is rebuilt, so a held snapshot always
    describes the current store, and repacking would copy buffers for no
    benefit — unless attaching had to sort the covering (a pre-1.14.0
    file): what is packed or saved next is the canonical covering, not
    the file's."""
    held = index.snapshot
    if held is not None and held.buffers["cell_ids"] is index.super_covering.cell_ids:
        return held
    ring_index, vertex_index, ring_lngs, ring_lats = pack_polygon_geometry(
        index.polygons
    )
    # The blob ships the refinement engine's bucket table, so an attached
    # index refines without re-bucketing a single polygon.
    view = index.probe_view()
    refiner = view.refiner if view.refiner is not None else RefinementEngine(
        tuple(index.polygons)
    )
    store, covering = index.store, index.super_covering
    faces = np.zeros((len(store._face_trees), 5), dtype=np.uint64)
    for row, (face, tree) in enumerate(sorted(store._face_trees.items())):
        faces[row] = (
            face,
            tree.root_base,
            tree.prefix_shift,
            tree.prefix_value,
            tree.prefix_depth,
        )
    face_values = np.zeros((len(store._face_values), 2), dtype=np.uint64)
    for row, (face, entry) in enumerate(sorted(store._face_values.items())):
        face_values[row] = (face, entry)
    buffers: dict[str, np.ndarray] = {
        "poly_ring_index": ring_index,
        "ring_vertex_index": vertex_index,
        "ring_lngs": ring_lngs,
        "ring_lats": ring_lats,
        **_pack_refiner_table(refiner.table()),
        "act_pool": store.pool,
        "act_faces": faces,
        "act_face_values": face_values,
        "lut": store.lookup_table.array,
        "cell_ids": covering.cell_ids,
        "ref_offsets": covering.ref_offsets,
        "packed_refs": covering.packed_refs,
    }
    validate_buffers(buffers)
    meta = {
        "flat_format": FLAT_FORMAT_VERSION,
        "num_polygons": len(index.polygons),
        "precision_meters": (
            float(index.precision_meters)
            if index.precision_meters is not None
            else None
        ),
        "version": int(index.version),
        "fanout_bits": int(store.fanout_bits),
        "max_value_depth": int(store._max_value_depth),
        "num_nodes": int(store.num_nodes),
        "num_keys": int(store.num_keys),
        "num_input_cells": int(store.num_input_cells),
        "build_seconds": float(store.build_seconds),
        "num_cells": int(covering.num_cells),
        "max_cell_level": covering.max_level(),
    }
    return FlatSnapshot(meta, buffers)


# ----------------------------------------------------------------------
# Attaching
# ----------------------------------------------------------------------


def attach_index(
    source: FlatSnapshot | np.ndarray | bytes,
    *,
    version: int | None = None,
    owner: object = None,
) -> PolygonIndex:
    """Attach an index to a packed snapshot (no rebuild).

    No store build and no covering unpacking happen here: the ACT pool,
    lookup table, super covering, polygon geometry, and refinement
    buckets of the returned :class:`~repro.core.builder.PolygonIndex` are
    views into the snapshot's blob (the covering's buffers are checked,
    and a pre-1.14.0 file's unsorted cell ids are sorted once — see
    :meth:`SuperCovering.attach`).

    ``version=None`` stamps a fresh process-local version (the loaded
    snapshot outranks everything built so far — callers raise the floor
    with :func:`~repro.core.builder.ensure_version_floor` first);
    otherwise the given version is stamped verbatim (shard workers stamp
    the parent snapshot's version so every partition agrees)."""
    # Imported here because repro.core.builder imports this module: a
    # PolygonIndex holds the snapshot it was attached from.
    from repro.core.builder import BuildTimings, PolygonIndex

    if isinstance(source, FlatSnapshot):
        snapshot = source
    else:
        snapshot = FlatSnapshot.from_buffer(source, owner=owner)
    meta = snapshot.meta
    if meta.get("flat_format") != FLAT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported flat snapshot format {meta.get('flat_format')!r}"
        )
    buffers = snapshot.buffers
    lookup_table = LookupTable.attach(buffers["lut"])
    store = AdaptiveCellTrie.attach(
        buffers["act_pool"],
        buffers["act_faces"],
        buffers["act_face_values"],
        meta,
        lookup_table,
    )
    polygons = unpack_polygon_geometry(
        buffers["poly_ring_index"],
        buffers["ring_vertex_index"],
        buffers["ring_lngs"],
        buffers["ring_lats"],
    )
    covering = SuperCovering.attach(
        buffers["cell_ids"], buffers["ref_offsets"], buffers["packed_refs"]
    )
    return PolygonIndex(
        polygons,
        covering,
        store,
        lookup_table,
        BuildTimings(),
        meta["precision_meters"],
        None,
        version=version,
        snapshot=snapshot,
    )
