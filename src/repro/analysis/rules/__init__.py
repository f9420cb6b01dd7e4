"""The rule registry: every shipped invariant rule, by id."""

from __future__ import annotations

from ..core import Rule
from .async_blocking import AsyncBlockingRule
from .cold_import import ColdImportRule
from .data_rebind import DataRebindRule
from .layer_dag import LAYER_DEPS, LayerDagRule
from .lock_guard import LockGuardRule
from .typed_raise import TypedRaiseRule
from .wire_consts import WireConstsRule

__all__ = ["RULES", "default_rules", "LAYER_DEPS",
           "AsyncBlockingRule", "ColdImportRule", "DataRebindRule", "LayerDagRule",
           "LockGuardRule", "TypedRaiseRule", "WireConstsRule"]

#: rule id -> rule class; ``repro lint --rule <id>`` selects from here.
RULES: dict[str, type[Rule]] = {
    rule.id: rule
    for rule in (LayerDagRule, LockGuardRule, AsyncBlockingRule,
                 TypedRaiseRule, WireConstsRule, DataRebindRule, ColdImportRule)
}


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule (rules are stateful
    within one run, so instances are never reused across runs)."""
    return [rule_cls() for rule_cls in RULES.values()]
