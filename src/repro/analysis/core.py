"""Framework core: parsed modules, the rule registry, and the driver.

The analyzer parses every ``.py`` file once into a :class:`ModuleInfo`
(AST + raw source + comment annotations), bundles them into a
:class:`Project`, and runs each registered :class:`Rule` over every
module (``check_module``).

Annotations are plain comments so the runtime never pays for them:

``#: guarded_by(_lock)``
    on an attribute assignment — every read and write of that attribute
    in methods of the class must happen under ``with self._lock:``.
``#: guarded_by(_lock, writes)``
    writes-only variant for copy-on-write fields: writers must hold the
    lock, readers may take lock-free snapshots.
``#: requires(_lock)``
    on a ``def`` line — the method is documented to run with the lock
    already held; its body counts as locked, and same-class calls to it
    must themselves happen under the lock.
``# repro: ignore[rule-name]``
    suppresses findings of that rule on the same line (or on the single
    statement directly below a standalone suppression comment).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

__all__ = [
    "Severity",
    "Finding",
    "Annotation",
    "ModuleInfo",
    "ClassInfo",
    "Project",
    "Rule",
    "Analyzer",
    "self_attr",
    "iter_methods",
]


class Severity:
    """Finding severities. ``ERROR`` fails the run; ``WARNING`` reports."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation, with a line-number-independent fingerprint.

    ``symbol`` anchors the finding to a stable scope (for example
    ``ClassName.method:attr#2``) so baselines survive unrelated edits
    that shift line numbers.
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    symbol: str = ""

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}:{self.path}:{self.symbol or self.line}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


# ----------------------------------------------------------------------
# Comment annotations
# ----------------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-, ]+)\]")
_ANNOT_RE = re.compile(r"#:\s*(guarded_by|requires)\s*(?:\(([^)]*)\))?")


@dataclass(frozen=True)
class Annotation:
    """A parsed ``#:`` marker comment: ``kind`` plus its raw arguments."""

    kind: str  # "guarded_by" | "requires"
    args: tuple[str, ...]
    line: int


def _parse_annotations(lines: Sequence[str]) -> dict[int, list[Annotation]]:
    found: dict[int, list[Annotation]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "#:" not in text:
            continue
        for match in _ANNOT_RE.finditer(text):
            raw = match.group(2) or ""
            args = tuple(part.strip() for part in raw.split(",") if part.strip())
            found.setdefault(lineno, []).append(
                Annotation(kind=match.group(1), args=args, line=lineno)
            )
    return found


def _parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map line number -> rule names suppressed on that line.

    A suppression comment on its own line applies to the next line
    instead, so multi-line statements can carry one without overflowing
    the line-length budget.
    """
    found: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(part.strip() for part in match.group(1).split(",") if part.strip())
        target = lineno
        if text.strip().startswith("#"):
            target = lineno + 1
        if target in found:
            rules = found[target] | rules
        found[target] = rules
    return found


# ----------------------------------------------------------------------
# Parsed modules and the project index
# ----------------------------------------------------------------------


class ModuleInfo:
    """One parsed source file: AST, raw lines, annotations, suppressions."""

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.annotations = _parse_annotations(self.lines)
        self.suppressions = _parse_suppressions(self.lines)

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and rule in rules

    def annotations_for_line(self, lineno: int, kind: str) -> list[Annotation]:
        """Annotations attached to a statement starting at ``lineno``.

        A marker counts if it sits on the statement's first line, or
        alone on the line directly above it.
        """
        hits = [a for a in self.annotations.get(lineno, []) if a.kind == kind]
        above = self.annotations.get(lineno - 1, [])
        if above and lineno - 2 < len(self.lines):
            text = self.lines[lineno - 2].strip()
            if text.startswith("#:"):
                hits.extend(a for a in above if a.kind == kind)
        return hits


def self_attr(node: ast.AST) -> str | None:
    """Return ``name`` when ``node`` is ``self.name``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


class ClassInfo:
    """A class definition and its methods by name."""

    def __init__(self, module: ModuleInfo, node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {
            m.name: m for m in iter_methods(node)
        }


class Project:
    """All parsed modules of one analyzer run."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)


# ----------------------------------------------------------------------
# Rules and the driver
# ----------------------------------------------------------------------


class Rule:
    """Base class: subclass, set ``name``/``description``, override ``check_module``."""

    name: str = ""
    description: str = ""
    severity: str = Severity.ERROR

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finding(
        self, module: ModuleInfo, line: int, message: str, symbol: str = ""
    ) -> Finding:
        return Finding(
            rule=self.name,
            severity=self.severity,
            path=module.relpath,
            line=line,
            message=message,
            symbol=symbol,
        )


class Analyzer:
    """Parse a tree once, run every rule, and filter suppressions."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)
        self.parse_errors: list[str] = []

    def load(self, paths: Sequence[Path], root: Path | None = None) -> Project:
        root = root or Path.cwd()
        modules: list[ModuleInfo] = []
        seen: set[Path] = set()
        for path in paths:
            for file in sorted(self._py_files(path)):
                resolved = file.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                try:
                    rel = str(file.relative_to(root))
                except ValueError:
                    rel = str(file)
                try:
                    modules.append(ModuleInfo(file, rel.replace("\\", "/"), file.read_text()))
                except SyntaxError as exc:
                    self.parse_errors.append(f"{rel}: {exc}")
        return Project(modules)

    @staticmethod
    def _py_files(path: Path) -> Iterator[Path]:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            return
        yield from path.rglob("*.py")

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        by_path = {module.relpath: module for module in project.modules}
        for rule in self.rules:
            for module in project.modules:
                findings.extend(rule.check_module(module))
        kept = [
            f
            for f in findings
            if not (f.path in by_path and by_path[f.path].is_suppressed(f.line, f.rule))
        ]
        kept.sort(key=lambda f: (f.path, f.line, f.rule))
        return kept
