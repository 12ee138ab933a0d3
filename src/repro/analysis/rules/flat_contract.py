"""flat-contract: RFLAT buffer declarations agree with the spec table.

``repro.core.flat`` packs one probe generation into named buffers whose
byte layout is the on-disk / shared-memory wire format: readers attach
the same bytes from disk, mmap, and shared memory with zero copies, so
a dtype drift or an alignment change silently corrupts every attach
path at once (the same failure class arXiv:1802.09488's SIMD refinement
guards against with strict buffer contracts).

``flat.py`` therefore carries a declarative ``FLAT_BUFFER_SPEC`` —
buffer name -> little-endian dtype string — which this rule treats as
the single source of truth.  The spec may be one plain dict literal or
a ``{**SECTION_A, **SECTION_B, ...}`` spread merge of module-level
section literals (``flat.py`` splits the spec into geometry / coverage /
extension sections); spreads are resolved statically and every
section literal is treated as part of the spec declaration:

* ``_ALIGN`` must stay 64 (the header table and every attach-side
  ``offset`` computation assume cache-line alignment),
* spread sections must be disjoint — a buffer declared in two sections
  would make the merged spec order-dependent and lets the sections
  disagree about who owns the buffer,
* every string subscript into a ``buffers`` mapping, anywhere in the
  project, must name a spec entry (catches reader-side typos and
  unspecced additions),
* every dict literal in ``flat.py`` that mentions two or more spec
  buffers (the pack tables) may only use spec keys,
* where a packed value's dtype is statically visible (``np.zeros(...,
  dtype=np.int64)`` traced through local assignment), it must match the
  spec dtype,
* spec entries nobody packs or reads are flagged as stale (warning).

``pack_index`` additionally validates the built dict against the spec
at runtime, so even dynamically-computed dtypes cannot drift.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.core import Finding, ModuleInfo, Project, Rule

_EXPECTED_ALIGN = 64

# numpy constructor dtype names -> little-endian dtype strings.
_NP_DTYPE_STRS = {
    "uint8": "|u1",
    "uint32": "<u4",
    "uint64": "<u8",
    "int32": "<i4",
    "int64": "<i8",
    "float32": "<f4",
    "float64": "<f8",
}


def _module_dict_literals(
    module: ModuleInfo,
) -> dict[str, tuple[ast.Dict, dict[str, str]]]:
    """Name -> (AST node, entries) for module-level string-dict literals.

    Only fully plain literals qualify (every key and value a string
    constant) — these are the spec *section* candidates a spread merge
    may reference.
    """
    literals: dict[str, tuple[ast.Dict, dict[str, str]]] = {}
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Dict):
            continue
        entries: dict[str, str] = {}
        plain = True
        for key, val in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(val, ast.Constant)
                and isinstance(val.value, str)
            ):
                entries[key.value] = val.value
            else:
                plain = False
        if not plain:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                literals[target.id] = (value, entries)
    return literals


#: One ``**SECTION`` constituent of a spread-merged spec.
_SpecSection = tuple[str, dict[str, str], int]


def _find_spec(
    module: ModuleInfo,
) -> tuple[dict[str, str], list[ast.Dict], list[_SpecSection]] | None:
    """(spec, declaration AST nodes, sections) for FLAT_BUFFER_SPEC.

    The spec literal may inline entries directly or merge module-level
    section literals with ``**SECTION`` spreads; both resolve here.  All
    declaration nodes (the spec literal plus every spread section's
    literal) are returned so the pack-table scan can skip them — they
    trivially mention every spec key and would otherwise mark all of
    them as referenced.  Sections come back as (name, entries, line) for
    the disjointness check.
    """
    literals = _module_dict_literals(module)
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "FLAT_BUFFER_SPEC":
                if isinstance(value, ast.Dict):
                    spec: dict[str, str] = {}
                    declarations = [value]
                    sections: list[_SpecSection] = []
                    for key, val in zip(value.keys, value.values):
                        if key is None:  # a ``**SECTION`` spread
                            name = val.id if isinstance(val, ast.Name) else None
                            if name is not None and name in literals:
                                section_node, entries = literals[name]
                                declarations.append(section_node)
                                sections.append((name, entries, val.lineno))
                                spec.update(entries)
                        elif (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and isinstance(val, ast.Constant)
                            and isinstance(val.value, str)
                        ):
                            spec[key.value] = val.value
                    return spec, declarations, sections
    return None


def _align_value(module: ModuleInfo) -> tuple[int, int] | None:
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "_ALIGN":
                    if isinstance(node.value, ast.Constant):
                        return int(node.value.value), node.lineno
    return None


def _buffers_name(value: ast.AST) -> str | None:
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _buffers_subscripts(module: ModuleInfo) -> Iterable[tuple[int, str]]:
    """(line, key) for every ``<...>buffers["key"]`` / ``buffers.get("key")``."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Subscript):
            if _buffers_name(node.value) != "buffers":
                continue
            if isinstance(node.slice, ast.Constant) and isinstance(
                node.slice.value, str
            ):
                yield node.lineno, node.slice.value
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and _buffers_name(func.value) == "buffers"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                yield node.lineno, node.args[0].value


def _static_dtype(value: ast.expr, local_dtypes: dict[str, str]) -> str | None:
    """Dtype string when statically visible: a traced local, or a direct
    numpy constructor call with an explicit ``dtype=np.<name>``."""
    if isinstance(value, ast.Name):
        return local_dtypes.get(value.id)
    if isinstance(value, ast.Call):
        for kw in value.keywords:
            if kw.arg == "dtype":
                v = kw.value
                dtype_name = v.attr if isinstance(v, ast.Attribute) else (
                    v.id if isinstance(v, ast.Name) else None
                )
                if dtype_name in _NP_DTYPE_STRS:
                    return _NP_DTYPE_STRS[dtype_name]
    return None


class FlatContractRule(Rule):
    name = "flat-contract"
    description = (
        "RFLAT buffer names/dtypes match FLAT_BUFFER_SPEC and _ALIGN stays "
        "at 64-byte cache-line alignment"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        spec_module: ModuleInfo | None = None
        spec: dict[str, str] = {}
        declarations: list[ast.Dict] = []
        sections: list[_SpecSection] = []
        for module in project.modules:
            found = _find_spec(module)
            if found is not None:
                spec_module, (spec, declarations, sections) = module, found
                break
        if spec_module is None:
            return  # project does not use the flat plane (e.g. test fixtures)

        # Spread sections must be disjoint: an overlapping buffer makes
        # the merged spec order-dependent and lets two sections disagree
        # about which one owns the buffer.
        owner_section: dict[str, str] = {}
        for name, entries, lineno in sections:
            for key in entries:
                if key in owner_section:
                    yield self.finding(
                        spec_module,
                        lineno,
                        f"buffer {key!r} is declared in both "
                        f"{owner_section[key]} and {name} — spec "
                        f"sections must be disjoint",
                        symbol=f"overlap:{key}",
                    )
                else:
                    owner_section[key] = name

        align = _align_value(spec_module)
        if align is not None and align[0] != _EXPECTED_ALIGN:
            yield self.finding(
                spec_module,
                align[1],
                f"_ALIGN is {align[0]} but the RFLAT header table and every "
                f"attach path assume {_EXPECTED_ALIGN}-byte alignment",
                symbol="_ALIGN",
            )

        referenced: set[str] = set()
        for module in project.modules:
            for line, key in _buffers_subscripts(module):
                referenced.add(key)
                if key not in spec:
                    yield self.finding(
                        module,
                        line,
                        f"buffers[{key!r}] is not declared in FLAT_BUFFER_SPEC "
                        f"({spec_module.relpath}) — add it there first",
                        symbol=f"subscript:{key}",
                    )

        # Pack-side dict literals: any dict mentioning >= 2 spec buffers is
        # a pack table and must stay inside the spec, with matching dtypes
        # where they are statically visible.
        for node in ast.walk(spec_module.tree):
            if not isinstance(node, ast.Dict) or any(
                node is declared for declared in declarations
            ):
                continue
            keys = [
                k.value
                for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            ]
            if sum(1 for k in keys if k in spec) < 2:
                continue
            local_dtypes = _local_dtypes_around(spec_module, node)
            for key_node, val_node in zip(node.keys, node.values):
                if not (
                    isinstance(key_node, ast.Constant)
                    and isinstance(key_node.value, str)
                ):
                    continue
                key = key_node.value
                referenced.add(key)
                if key not in spec:
                    yield self.finding(
                        spec_module,
                        key_node.lineno,
                        f"packed buffer {key!r} is not declared in "
                        f"FLAT_BUFFER_SPEC — readers cannot validate it",
                        symbol=f"pack:{key}",
                    )
                    continue
                dtype = _static_dtype(val_node, local_dtypes)
                if dtype is not None and dtype != spec[key]:
                    yield self.finding(
                        spec_module,
                        key_node.lineno,
                        f"buffer {key!r} is packed as dtype {dtype} but "
                        f"FLAT_BUFFER_SPEC declares {spec[key]}",
                        symbol=f"dtype:{key}",
                    )

        for key in sorted(set(spec) - referenced):
            yield Finding(
                rule=self.name,
                severity="warning",
                path=spec_module.relpath,
                line=1,
                message=(
                    f"FLAT_BUFFER_SPEC entry {key!r} is neither packed nor "
                    f"read anywhere — stale spec entry?"
                ),
                symbol=f"stale:{key}",
            )


def _local_dtypes_around(module: ModuleInfo, dict_node: ast.Dict) -> dict[str, str]:
    """Trace ``name = np.zeros(..., dtype=np.X)`` locals in the function
    enclosing ``dict_node`` so pack tables built from locals still get
    dtype checking."""
    enclosing: ast.FunctionDef | ast.AsyncFunctionDef | None = None
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(sub is dict_node for sub in ast.walk(node)):
                enclosing = node
    if enclosing is None:
        return {}
    local_dtypes: dict[str, str] = {}
    for node in ast.walk(enclosing):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                dtype = _static_dtype(node.value, {})
                if dtype is not None:
                    local_dtypes[target.id] = dtype
    return local_dtypes
