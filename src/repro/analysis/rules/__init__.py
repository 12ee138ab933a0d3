"""Rule registry: every shipped rule, instantiable by name."""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.guarded_by import GuardedByRule

__all__ = ["ALL_RULES", "all_rules", "rules_by_name"]

ALL_RULES: tuple[type[Rule], ...] = (GuardedByRule,)


def all_rules() -> list[Rule]:
    return [cls() for cls in ALL_RULES]


def rules_by_name(names: list[str] | None = None) -> list[Rule]:
    rules = all_rules()
    if names is None:
        return rules
    table = {rule.name: rule for rule in rules}
    unknown = [name for name in names if name not in table]
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(unknown)}")
    return [table[name] for name in names]
