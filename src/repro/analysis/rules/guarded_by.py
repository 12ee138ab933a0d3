"""guarded-by: annotated attributes only touched under their lock.

An attribute assignment carrying ``#: guarded_by(_lock)`` declares that
every read and write of ``self.<attr>`` inside methods of that class
must be lexically nested in ``with self._lock:``.  The
``#: guarded_by(_lock, writes)`` variant checks writes only — the
copy-on-write idiom (writers replace a container wholesale under the
lock, readers snapshot a reference lock-free) is load-bearing in
``LayerRouter`` and ``DynamicPolygonIndex`` and must stay expressible.
An item assignment, deletion or augmented assignment
``self.<attr>[key] ...`` is a write of ``<attr>``.

A method annotated ``#: requires(_lock)`` is documented to run with the
lock already held: its body counts as locked for that lock, and every
same-class call site ``self.method(...)`` must itself hold the lock.

``__init__`` is exempt: no other thread can hold a reference during
construction.  The check is lexical — a closure defined under the lock
but invoked after release will not be caught.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.core import (
    ClassInfo,
    Finding,
    ModuleInfo,
    Rule,
    iter_methods,
    self_attr,
)

_EXEMPT_METHODS = {"__init__", "__new__"}


def _with_locks(node: ast.With | ast.AsyncWith) -> set[str]:
    """Lock attribute names acquired by this ``with``'s items."""
    locks: set[str] = set()
    for item in node.items:
        attr = self_attr(item.context_expr)
        if attr is not None:
            locks.add(attr)
    return locks


def _collect_guarded(cls: ClassInfo) -> dict[str, tuple[str, bool]]:
    """attr -> (lock attr, writes_only) from annotated assignments."""
    guarded: dict[str, tuple[str, bool]] = {}
    module = cls.module
    for method in cls.methods.values():
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            annots = module.annotations_for_line(stmt.lineno, "guarded_by")
            if not annots:
                continue
            for target in targets:
                attr = self_attr(target)
                if attr is None:
                    continue
                for annot in annots:
                    if not annot.args:
                        continue
                    lock = annot.args[0]
                    writes_only = len(annot.args) > 1 and annot.args[1] == "writes"
                    guarded[attr] = (lock, writes_only)
    return guarded


def _collect_requires(cls: ClassInfo) -> dict[str, set[str]]:
    """method name -> locks the method documents as already held."""
    requires: dict[str, set[str]] = {}
    for method in cls.methods.values():
        for annot in cls.module.annotations_for_line(method.lineno, "requires"):
            if annot.args:
                requires.setdefault(method.name, set()).update(annot.args)
    return requires


class GuardedByRule(Rule):
    name = "guarded-by"
    description = (
        "attributes annotated '#: guarded_by(lock)' are only accessed under "
        "'with self.lock:' (writes-only mode for copy-on-write fields)"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                cls = ClassInfo(module, node)
                findings.extend(self._check_class(cls))
        return findings

    def _check_class(self, cls: ClassInfo) -> Iterable[Finding]:
        guarded = _collect_guarded(cls)
        requires = _collect_requires(cls)
        if not guarded and not requires:
            return
        for method in iter_methods(cls.node):
            if method.name in _EXEMPT_METHODS:
                continue
            held = set(requires.get(method.name, ()))
            counter: dict[str, int] = {}
            yield from self._walk(cls, method, method, held, guarded, requires, counter)

    def _walk(
        self,
        cls: ClassInfo,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        held: set[str],
        guarded: dict[str, tuple[str, bool]],
        requires: dict[str, set[str]],
        counter: dict[str, int],
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                child_held = held | _with_locks(child)
            elif isinstance(child, ast.Attribute):
                attr = self_attr(child)
                if attr is not None and attr in guarded:
                    lock, writes_only = guarded[attr]
                    # ``self.attr[key] = ...``, ``del self.attr[key]`` and
                    # ``self.attr[key] += ...`` load the attribute but
                    # write into it: the subscript carries the store.
                    item = isinstance(node, ast.Subscript) and node.value is child
                    target = node if item else child
                    is_write = isinstance(target.ctx, (ast.Store, ast.Del))
                    if (is_write or not writes_only) and lock not in held:
                        counter[attr] = counter.get(attr, 0) + 1
                        kind = "write to" if is_write else "read of"
                        yield self.finding(
                            cls.module,
                            child.lineno,
                            f"{kind} {cls.name}.{attr} outside 'with self.{lock}:' "
                            f"(declared '#: guarded_by({lock}"
                            f"{', writes' if writes_only else ''})')",
                            symbol=f"{cls.name}.{method.name}:{attr}#{counter[attr]}",
                        )
            elif isinstance(child, ast.Call):
                callee = None
                if isinstance(child.func, ast.Attribute):
                    callee = self_attr(child.func)
                if callee is not None and callee in requires:
                    missing = requires[callee] - held
                    if missing:
                        lock = sorted(missing)[0]
                        counter[callee] = counter.get(callee, 0) + 1
                        yield self.finding(
                            cls.module,
                            child.lineno,
                            f"call to {cls.name}.{callee}() outside "
                            f"'with self.{lock}:' (callee declared "
                            f"'#: requires({lock})')",
                            symbol=(
                                f"{cls.name}.{method.name}:call-{callee}"
                                f"#{counter[callee]}"
                            ),
                        )
            yield from self._walk(cls, method, child, child_held, guarded, requires, counter)
