"""layer-dag: the one declared import DAG between ``repro`` packages.

Each top-level package lists the packages it may import from
(:data:`LAYER_DEPS`).  The rule resolves every ``import``/``from``
statement in a ``repro.*`` module — absolute and relative alike — to the
target's top-level package and flags edges that are not declared.

The declaration replaces both the ruff TID251 banned-import config and
the bespoke AST walk ``tests/test_layering.py`` used to carry; the test
is now a thin wrapper over this rule.  Layer order, foundations first::

    utils / errors / metrics / concepts
      -> nn / llm / embedding / data / kg / gnn / baselines
      -> adaptation / edge / eval -> api
      -> runtime -> serving -> wal -> gateway -> cli

``runtime`` sits *below* ``serving`` (the engine serves over a fleet it
is handed, and never imports one).  An import that breaks this order
is fixed, or suppressed inline where it happens (none is), never
widened here.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Finding, Rule, SourceFile

__all__ = ["LayerDagRule", "LAYER_DEPS", "resolve_import_targets"]

#: package -> packages it may import from (top-level names under
#: ``repro``; ``""`` is the repro package root: ``errors``, ``metrics``,
#: ``cli`` and friends live there as modules and are named directly).
LAYER_DEPS: dict[str, frozenset[str]] = {
    # foundations — import nothing project-internal
    "utils": frozenset(),
    "errors": frozenset(),
    "metrics": frozenset(),
    # observability: trace contexts/recorder — sits next to metrics,
    # above nothing else, so every serving layer may depend on it
    "obs": frozenset({"metrics", "utils"}),
    "concepts": frozenset({"utils"}),
    # domain layers
    "nn": frozenset({"errors"}),
    "llm": frozenset({"concepts", "utils"}),
    "embedding": frozenset({"concepts", "nn", "utils"}),
    "data": frozenset({"concepts", "embedding", "utils"}),
    "kg": frozenset({"llm", "embedding", "errors", "utils"}),
    "gnn": frozenset({"embedding", "kg", "nn", "utils"}),
    "baselines": frozenset({"embedding", "nn", "utils"}),
    "adaptation": frozenset({"embedding", "errors", "gnn", "kg", "nn", "utils"}),
    "edge": frozenset({"adaptation", "gnn", "kg"}),
    "eval": frozenset({"adaptation", "concepts", "data", "embedding",
                       "gnn", "kg", "nn", "utils"}),
    "api": frozenset({"adaptation", "concepts", "data", "errors", "eval",
                      "embedding", "gnn", "kg", "llm", "utils"}),
    # serving stack, bottom-up
    "runtime": frozenset({"adaptation", "errors", "metrics", "obs",
                          "utils"}),
    "serving": frozenset({"api", "data", "embedding", "errors", "gnn",
                          "metrics", "obs", "runtime", "utils"}),
    "wal": frozenset({"api", "data", "errors", "gnn", "metrics", "obs",
                      "serving", "utils"}),
    "gateway": frozenset({"errors", "metrics", "obs", "runtime", "serving",
                          "utils", "wal"}),
    # tools on top
    "analysis": frozenset(),
    "cli": frozenset({"analysis", "api", "concepts", "data", "edge",
                      "errors", "eval", "gateway", "gnn", "kg", "llm",
                      "metrics", "obs", "serving", "utils", "wal"}),
}


def _top_package(module: str) -> str | None:
    """``repro.wal.log`` -> ``wal``; ``repro`` -> ``""``; non-repro
    modules -> ``None``."""
    if module == "repro":
        return ""
    if not module.startswith("repro."):
        return None
    return module.split(".")[1]


def resolve_import_targets(node: ast.Import | ast.ImportFrom,
                           module: str, is_package: bool = False) -> list[str]:
    """Absolute dotted module names an import statement reaches.

    Relative imports are resolved against ``module`` (the importing
    module's dotted name) using the same level arithmetic as the import
    system: level 1 anchors at the containing package — which for a
    package ``__init__`` is the module itself.  For ``from pkg import
    name`` the target recorded is ``pkg.name`` *and* ``pkg`` — ``name``
    may be a submodule or an attribute; resolving both keeps the rule
    conservative either way.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        base = node.module or ""
    else:
        parts = module.split(".")
        strip = node.level - 1 if is_package else node.level
        anchor = parts[:len(parts) - strip] if strip else parts
        if not anchor:
            return []
        base = ".".join(anchor)
        if node.module:
            base = f"{base}.{node.module}"
    targets = [base] if base else []
    for alias in node.names:
        if base and alias.name != "*":
            targets.append(f"{base}.{alias.name}")
    return targets


class LayerDagRule(Rule):
    id = "layer-dag"
    summary = ("repro packages may only import from the layers declared "
               "in LAYER_DEPS")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        importer = _top_package(source.module)
        if importer is None or importer == "":
            return
        allowed = LAYER_DEPS.get(importer)
        if allowed is None:
            yield source.finding(
                source.tree, self.id,
                f"package '{importer}' has no entry in the layer DAG "
                f"(declare it in repro.analysis.rules.layer_dag.LAYER_DEPS)")
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in resolve_import_targets(node, source.module,
                                                 source.is_package):
                imported = _top_package(target)
                if imported is None or imported == "":
                    continue  # stdlib/third-party, or the repro root
                if imported.startswith("__"):
                    continue  # root-package attribute (e.g. __version__)
                if imported == importer or imported in allowed:
                    continue
                yield source.finding(
                    node, self.id,
                    f"'{source.module}' (layer '{importer}') imports "
                    f"'{target}' (layer '{imported}'), not in its "
                    f"declared dependencies")
                break  # one finding per import statement
