"""Persist and restore built indexes (static and dynamic).

The paper's setting is a mostly static polygon set probed by a stream of
points; rebuilding the index on every process start wastes exactly the
build time the paper chose not to optimize.  ``save_index``/``load_index``
persist everything needed to probe.  Since FORMAT_VERSION 3 that is a
:class:`~repro.core.flat.FlatSnapshot`: one contiguous blob holding the
ACT node pool, lookup table, covering arrays, polygon ring geometry, and
the refinement engine's packed edge buckets — so loading is an
``np.load(mmap_mode="r")`` *attach* with no store build at all (the probe
path reads the mapped buffers directly).  Earlier versions serialized
the covering and polygon WKT into an ``.npz`` archive and re-ran the trie
construction on load; those files still load through the legacy path.

Format history:

* **v1** — super covering + polygons + build configuration (``.npz``);
  the store is rebuilt on load.
* **v2** — adds lifecycle state: the snapshot ``version`` and, for a
  :class:`~repro.core.dynamic.DynamicPolygonIndex`, its delta as a log
  (inserts as WKT, deletes as tombstoned ids) replayed on load.
* **v3** — the flat snapshot container (single ``.npy`` payload): zero
  rebuild on load, mmap-able, bit-identical probe results.  The delta
  log ships as packed ring geometry instead of WKT.  Since 1.20.0 the log
  is derived from the delta when saving — every delta insert in id
  order, then every tombstone — and the dynamic meta also records the
  training split schedule (``training_order``).
* **v4** (1.34.0) — the same container; the ACT node pool is signed
  (``act_pool`` ``<i8``: a child's slot base, or minus a row of the new
  ``act_entries`` ``<u8`` table) instead of tagged, and the flat meta
  records ``act_encoding``.  A v3 file's tagged pool is re-encoded once
  when it is attached — no store build.

Writers always emit the current ``FORMAT_VERSION``; readers accept every
version up to it.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from repro.cells.coverer import CovererOptions

from repro.core.builder import (
    DEFAULT_COVERING_OPTIONS,
    DEFAULT_INTERIOR_OPTIONS,
    BuildTimings,
    PolygonIndex,
    build_store,
    ensure_version_floor,
)
from repro.core.dynamic import DynamicPolygonIndex
from repro.core.flat import (
    FLAT_EXTENSION_BUFFERS,
    FlatSnapshot,
    attach_index,
    pack_index,
    pack_polygon_geometry,
    unpack_polygon_geometry,
    validate_buffers,
)
from repro.core.super_covering import SuperCovering
from repro.geo.polygon import Polygon
from repro.geo.wkt import polygon_from_wkt
from repro.util.timing import Timer

FORMAT_VERSION = 4

#: Last format that used the legacy ``.npz`` + rebuild-on-load layout.
_LAST_LEGACY_VERSION = 2

#: WKT slot marking a deleted polygon id (a hole in the id space).
_HOLE = ""

_OP_INSERT = 0
_OP_DELETE = 1

#: Meta keys only a :class:`DynamicPolygonIndex` save writes (and
#: ``background``, which files written before 1.20.0 carry).
_DYNAMIC_META_KEYS = (
    "dynamic",
    "compact_threshold",
    "background",
    "covering_options",
    "interior_options",
    "training_max_cells",
    "training_order",
)

#: One replayed mutation: ``(_OP_INSERT | _OP_DELETE, polygon id, polygon
#: or None)``.
_LogEntry = tuple[int, int, Polygon | None]


def _coverer_options(fields: dict | None) -> CovererOptions:
    return CovererOptions(**fields) if fields else DEFAULT_COVERING_OPTIONS


def _interior_options(fields: dict | None) -> CovererOptions:
    return CovererOptions(**fields) if fields else DEFAULT_INTERIOR_OPTIONS


def _pack_delta_log(
    polygons: list[Polygon | None], inserts: list[int], deletes: list[int]
) -> dict[str, np.ndarray]:
    """The delta as flat log buffers (geometry ring-packed): every insert,
    then every delete."""
    kinds = np.asarray(
        [_OP_INSERT] * len(inserts) + [_OP_DELETE] * len(deletes), dtype=np.int8
    )
    pids = np.asarray(inserts + deletes, dtype=np.int64)
    ring_index, vertex_index, lngs, lats = pack_polygon_geometry(
        [polygons[pid] for pid in inserts] + [None] * len(deletes)
    )
    return {
        "delta_kinds": kinds,
        "delta_pids": pids,
        "delta_ring_index": ring_index,
        "delta_vertex_index": vertex_index,
        "delta_lngs": lngs,
        "delta_lats": lats,
    }


def _unpack_delta_log(buffers: dict[str, np.ndarray]) -> list[_LogEntry]:
    polygons = unpack_polygon_geometry(
        buffers["delta_ring_index"],
        buffers["delta_vertex_index"],
        buffers["delta_lngs"],
        buffers["delta_lats"],
    )
    return [
        (int(kind), int(pid), polygon)
        for kind, pid, polygon in zip(
            buffers["delta_kinds"], buffers["delta_pids"], polygons
        )
    ]


def _replay(
    base: PolygonIndex,
    meta: dict,
    training_cell_ids: np.ndarray | None,
    log: Iterable[_LogEntry],
) -> DynamicPolygonIndex:
    """Wrap ``base`` as the saved dynamic index: the file's covering
    options on the base, its training configuration, then the log
    through ``insert`` / ``delete``.

    Files written before 1.9.0 may carry a ``flat_snapshots`` meta key,
    and before 1.20.0 a ``background`` one (both removed constructor
    options); they are ignored.
    """
    base.covering_options = _coverer_options(meta.get("covering_options"))
    base.interior_options = _interior_options(meta.get("interior_options"))
    dynamic = DynamicPolygonIndex(
        base,
        compact_threshold=meta.get("compact_threshold"),
        training_cell_ids=training_cell_ids,
        training_max_cells=meta.get("training_max_cells"),
    )
    # Not yet shared with any thread: no lock needed.
    dynamic._training_order = meta.get("training_order", "arrival")
    for kind, pid, polygon in log:
        if kind == _OP_DELETE:
            dynamic.delete(pid)
        elif dynamic.insert(polygon) != pid:
            raise ValueError(f"delta log inserts id {pid} out of order")
    return dynamic


def save_index(
    index: PolygonIndex | DynamicPolygonIndex, path: str | pathlib.Path
) -> None:
    """Serialize ``index`` to ``path`` (a flat snapshot, v4).

    A :class:`DynamicPolygonIndex` is saved as its immutable base snapshot
    plus its delta as a log — every delta insert in id order, then every
    tombstone — with its covering options and training configuration;
    loading replays the log, restoring the exact live polygon set, ids
    and ``delta_size``.
    """
    extra: dict[str, np.ndarray] = {}
    dynamic_meta: dict[str, object] = {}
    if isinstance(index, DynamicPolygonIndex):
        # Writers hold this lock: base, delta and training configuration
        # are read as one state.
        with index._lock:
            base = index.base
            extra = _pack_delta_log(
                index._polygons, sorted(index._delta_ids), sorted(index._tombstones)
            )
            training_cell_ids = index._training_cell_ids
            dynamic_meta = {
                "dynamic": True,
                "compact_threshold": index._compact_threshold,
                "covering_options": asdict(base.covering_options),
                "interior_options": asdict(base.interior_options),
                "training_max_cells": index._training_max_cells,
                "training_order": index._training_order,
            }
        if training_cell_ids is not None:
            extra["training_cell_ids"] = np.asarray(
                training_cell_ids, dtype=np.uint64
            )
        index = base
    snapshot = pack_index(index)
    # A flat-loaded base holds the snapshot it was attached from, which may
    # carry the dynamic meta and delta-log buffers of the file it came
    # out of; only the object being saved decides those.
    meta = {
        key: value
        for key, value in snapshot.meta.items()
        if key not in _DYNAMIC_META_KEYS
    }
    meta.update(
        {
            "format_version": FORMAT_VERSION,
            "version": int(index.version),
            **dynamic_meta,
        }
    )
    buffers = {
        name: array
        for name, array in snapshot.buffers.items()
        if name not in FLAT_EXTENSION_BUFFERS
    }
    buffers.update(extra)
    validate_buffers(buffers)
    FlatSnapshot(meta, buffers).save(path)


def load_index(path: str | pathlib.Path) -> PolygonIndex | DynamicPolygonIndex:
    """Restore an index saved by :func:`save_index`.

    Accepts every format version up to :data:`FORMAT_VERSION`.  A v3 or
    v4 file is *attached* (:func:`~repro.core.flat.attach_index`): the
    returned index serves straight from the mmap'd buffers (a v3 file's
    tagged pool is re-encoded once) and no store build runs.  v1/v2 ``.npz`` archives take the legacy rebuild path.
    A file saved from a :class:`DynamicPolygonIndex` comes back as one,
    with its delta log replayed through ``insert`` / ``delete``, anything
    else as a plain :class:`PolygonIndex`.
    """
    loaded = np.load(path, mmap_mode="r", allow_pickle=True)
    if isinstance(loaded, np.lib.npyio.NpzFile):
        with loaded as archive:
            return _load_legacy(archive)
    snapshot = FlatSnapshot.from_buffer(loaded, owner=loaded)
    meta = snapshot.meta
    file_version = int(meta.get("format_version", 0))
    if not _LAST_LEGACY_VERSION < file_version <= FORMAT_VERSION:
        raise ValueError(f"unsupported index file version {file_version}")
    # Versions are process-local, so the file's stamp is provenance, not
    # an ordering: raise the local floor above it, then restamp.  The
    # loaded snapshot thereby outranks both the file and anything built
    # locally so far — a load-then-swap into a live service always
    # passes the router's newer-version check.
    ensure_version_floor(int(meta["version"]))
    base = attach_index(snapshot)
    if not meta.get("dynamic", False):
        return base
    return _replay(
        base,
        meta,
        snapshot.buffers.get("training_cell_ids"),
        _unpack_delta_log(snapshot.buffers),
    )


def _load_legacy(archive) -> PolygonIndex | DynamicPolygonIndex:
    """The v1/v2 ``.npz`` path: attach the covering, rebuild the store."""
    meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
    if not 1 <= meta["format_version"] <= _LAST_LEGACY_VERSION:
        raise ValueError(
            f"unsupported index file version {meta['format_version']}"
        )
    covering = SuperCovering.attach(
        archive["cell_ids"], archive["ref_offsets"], archive["packed_refs"]
    )
    polygons = [
        polygon_from_wkt(text) if text != _HOLE else None
        for text in archive["polygons"]
    ]
    training_cell_ids = (
        archive["training_cell_ids"]
        if "training_cell_ids" in archive.files
        else None
    )
    log: list[_LogEntry] = []
    if "delta_kinds" in archive.files:
        for kind, pid, wkt in zip(
            archive["delta_kinds"], archive["delta_pids"], archive["delta_polygons"]
        ):
            polygon = polygon_from_wkt(wkt) if int(kind) == _OP_INSERT else None
            log.append((int(kind), int(pid), polygon))
    saved_version = meta.get("version")
    if saved_version is not None:
        ensure_version_floor(int(saved_version))
    with Timer() as timer:
        store = build_store(covering, fanout_bits=meta["fanout_bits"])
    timings = BuildTimings(store_build_seconds=timer.seconds)
    base = PolygonIndex(
        polygons=polygons,
        super_covering=covering,
        store=store,
        timings=timings,
        precision_meters=meta["precision_meters"],
        training_report=None,
    )
    if not meta.get("dynamic", False):
        return base
    return _replay(base, meta, training_cell_ids, log)
