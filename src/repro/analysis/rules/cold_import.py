"""cold-import: importing ``repro`` loads the stdlib, numpy and ``repro``.

Every process of a deployment (gateway, recovery child, benchmark, CLI
call) pays a module-level import again, used or not — ``import networkx``
in ``kg/analysis.py`` was 285 modules, 0.1 s and 14 MB per process, and
broke the numpy-only install ``pyproject.toml`` declares.  So an import
that runs at import time (outside a function body and ``if TYPE_CHECKING:``)
names the stdlib, ``numpy`` or ``repro``; the rest is imported where used.
``base64``, at any depth, is refused: arrays travel as raw float64.
"""

from __future__ import annotations

import ast
import sys
from typing import Iterable, Iterator

from ..core import Finding, Rule, SourceFile

__all__ = ["ColdImportRule"]

ALLOWED = sys.stdlib_module_names | {"numpy", "repro"}


def _import_time(body: list[ast.stmt]) -> Iterator[ast.Import | ast.ImportFrom]:
    """Import statements that execute when the module is imported."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in (
                getattr(node.test, "id", None), getattr(node.test, "attr", None)):
            yield from _import_time(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # class, if, try, with, for, while, match: their bodies run
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                yield from _import_time(getattr(node, field, []))


class ColdImportRule(Rule):
    id = "cold-import"
    summary = ("module-level imports under src/repro name only the stdlib, "
               "numpy or repro; none names base64")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        if source.module.split(".")[0] != "repro":
            return
        at_import = list(_import_time(source.tree.body))
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "base64":
                    yield source.finding(node, self.id, "import of 'base64' "
                                         "— arrays travel as raw float64")
                elif name.split(".")[0] not in ALLOWED and node in at_import:
                    yield source.finding(
                        node, self.id, f"module-level import of '{name}' — "
                        f"every process importing {source.module} pays for it; "
                        f"import it inside the function that uses it")
