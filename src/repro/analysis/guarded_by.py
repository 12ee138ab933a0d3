"""guarded-by: annotated attributes only touched under their lock.

Annotations are plain comments so the runtime never pays for them:

``#: guarded_by(_lock)``
    on an attribute assignment: every read and write of ``self.<attr>``
    in methods of that class must be lexically nested in
    ``with self._lock:``.
``#: guarded_by(_lock, writes)``
    checks writes only.  The copy-on-write idiom (writers replace a
    container wholesale under the lock, readers snapshot a reference
    lock-free) is load-bearing in ``LayerRouter`` and
    ``DynamicPolygonIndex`` and must stay expressible.
``#: requires(_lock)``
    on a ``def`` line: the method is documented to run with the lock
    already held.  Its body counts as locked for that lock, and every
    same-class call site ``self.method(...)`` must itself hold the lock.

A marker counts if it sits on the statement's first line, or alone on
the line directly above it.  An item assignment, deletion or augmented
assignment ``self.<attr>[key] ...`` is a write of ``<attr>``.

``__init__`` is exempt: no other thread can hold a reference during
construction.  The check is lexical and per class: a closure defined
under the lock but invoked after release will not be caught.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Finding", "check"]

_ANNOT_RE = re.compile(r"#:\s*(guarded_by|requires)\s*(?:\(([^)]*)\))?")
_EXEMPT_METHODS = {"__init__", "__new__"}

#: line -> [(kind, args)] of the ``#:`` markers on that line.
Marks = dict[int, list[tuple[str, tuple[str, ...]]]]


@dataclass(frozen=True)
class Finding:
    """One access outside its lock.

    ``symbol`` names the site independently of line numbers:
    ``Class.method:attr#n`` for the n-th unlocked access of ``attr`` in
    that method, ``Class.method:call-callee#n`` for a ``requires`` call.
    """

    path: str
    line: int
    message: str
    symbol: str


def check(paths: Iterable[str | Path]) -> list[Finding]:
    """Every finding in the ``.py`` files under ``paths``, by path and line.

    Raises :class:`SyntaxError` for a file that does not parse and
    :class:`FileNotFoundError` for a path that does not exist, so a
    mistyped path is an error rather than a clean result.
    """
    findings: list[Finding] = []
    for file in _py_files(paths):
        source = file.read_text()
        tree = ast.parse(source, filename=str(file))
        marks = _parse_marks(source.splitlines())
        path = file.as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(path, marks, node))
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


def _py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in map(Path, paths):
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        files = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for file in files:
            if file.suffix == ".py" and file.resolve() not in seen:
                seen.add(file.resolve())
                yield file


def _parse_marks(lines: list[str]) -> Marks:
    own: Marks = {}
    for lineno, text in enumerate(lines, start=1):
        for match in _ANNOT_RE.finditer(text):
            args = tuple(a.strip() for a in (match.group(2) or "").split(",") if a.strip())
            own.setdefault(lineno, []).append((match.group(1), args))
    marks = {lineno: list(found) for lineno, found in own.items()}
    # A marker alone on its line also belongs to the statement below it.
    for lineno, found in own.items():
        if lines[lineno - 1].strip().startswith("#:"):
            marks.setdefault(lineno + 1, []).extend(found)
    return marks


def _args_of(marks: Marks, lineno: int, kind: str) -> list[tuple[str, ...]]:
    return [args for k, args in marks.get(lineno, ()) if k == kind and args]


def _self_attr(node: ast.AST) -> str | None:
    """``name`` when ``node`` is ``self.name``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _check_class(path: str, marks: Marks, cls: ast.ClassDef) -> Iterator[Finding]:
    methods = [m for m in cls.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # attr -> (lock attr, writes_only) from annotated assignments, and
    # method name -> locks the method documents as already held.  A
    # redefined name (a property's setter) keeps its last definition.
    guarded: dict[str, tuple[str, bool]] = {}
    requires: dict[str, set[str]] = {}
    for method in {m.name: m for m in methods}.values():
        for args in _args_of(marks, method.lineno, "requires"):
            requires.setdefault(method.name, set()).update(args)
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for args in _args_of(marks, stmt.lineno, "guarded_by"):
                for attr in filter(None, map(_self_attr, targets)):
                    guarded[attr] = (args[0], args[1:2] == ("writes",))
    if not guarded and not requires:
        return
    for method in methods:
        if method.name not in _EXEMPT_METHODS:
            walk = _Walk(path, cls.name, method.name, guarded, requires)
            yield from walk.visit(method, set(requires.get(method.name, ())))


class _Walk:
    """One method's lexical walk, carrying the locks held at each node."""

    def __init__(
        self,
        path: str,
        cls: str,
        method: str,
        guarded: dict[str, tuple[str, bool]],
        requires: dict[str, set[str]],
    ):
        self.path, self.cls, self.method = path, cls, method
        self.guarded, self.requires = guarded, requires
        self.counter: dict[str, int] = {}

    def finding(self, node: ast.AST, name: str, message: str) -> Finding:
        self.counter[name] = self.counter.get(name, 0) + 1
        symbol = f"{self.cls}.{self.method}:{name}#{self.counter[name]}"
        return Finding(self.path, node.lineno, message, symbol)

    def visit(self, node: ast.AST, held: set[str]) -> Iterator[Finding]:
        cls = self.cls
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                child_held = held | {
                    a for a in (_self_attr(i.context_expr) for i in child.items) if a
                }
            elif isinstance(child, ast.Attribute):
                attr = _self_attr(child)
                if attr is not None and attr in self.guarded:
                    lock, writes_only = self.guarded[attr]
                    # ``self.attr[key] = ...``, ``del self.attr[key]`` and
                    # ``self.attr[key] += ...`` load the attribute but
                    # write into it: the subscript carries the store.
                    item = isinstance(node, ast.Subscript) and node.value is child
                    target = node if item else child
                    is_write = isinstance(target.ctx, (ast.Store, ast.Del))
                    if (is_write or not writes_only) and lock not in held:
                        kind = "write to" if is_write else "read of"
                        yield self.finding(
                            child,
                            attr,
                            f"{kind} {cls}.{attr} outside 'with self.{lock}:' "
                            f"(declared '#: guarded_by({lock}"
                            f"{', writes' if writes_only else ''})')",
                        )
            elif isinstance(child, ast.Call):
                callee = _self_attr(child.func)
                missing = self.requires.get(callee, set()) - held
                if missing:
                    lock = sorted(missing)[0]
                    yield self.finding(
                        child,
                        f"call-{callee}",
                        f"call to {cls}.{callee}() outside 'with self.{lock}:' "
                        f"(callee declared '#: requires({lock})')",
                    )
            yield from self.visit(child, child_held)
