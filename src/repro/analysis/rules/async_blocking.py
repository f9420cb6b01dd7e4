"""async-blocking: no blocking work on the gateway event loop.

The gateway's latency contract depends on every blocking operation —
fsync, sleeps, socket dials, subprocesses, and the fleet/engine round
calls themselves — running inside the executor
(``loop.run_in_executor``), never lexically inside an ``async def``
body.  This rule flags *calls*; passing ``self.durability.close`` as a
function reference to ``run_in_executor`` is exactly the fixed form and
does not fire.

A plain ``def`` nested inside an ``async def`` is treated as escaping
(it is usually the executor thunk), so blocking calls inside it pass;
a nested ``async def`` stays on the loop and is still checked.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Finding, Rule, SourceFile

__all__ = ["AsyncBlockingRule"]

#: dotted call targets that block the calling thread
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.fsync", "os.fdatasync", "os.sync",
    "socket.create_connection", "socket.socket",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})

#: method names that execute a synchronous fleet/engine round
ROUND_METHODS = frozenset({
    "run_round", "ingest_round", "score_only", "serve_round",
})


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _AsyncBodyScanner(ast.NodeVisitor):
    def __init__(self, rule: "AsyncBlockingRule", source: SourceFile):
        self.rule = rule
        self.source = source
        self.findings: list[Finding] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # sync def nested in async def: an executor thunk, escapes

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass  # nested async defs are scanned by the rule's outer walk

    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            if dotted in BLOCKING_CALLS:
                self.findings.append(self.source.finding(
                    node, self.rule.id,
                    f"blocking call '{dotted}()' inside async def — "
                    f"route it through loop.run_in_executor"))
                return
            head, _, _ = dotted.rpartition(".")
            if "durability" in head.split("."):
                self.findings.append(self.source.finding(
                    node, self.rule.id,
                    f"durability call '{dotted}()' (fsync under the "
                    f"hood) inside async def — route it through "
                    f"loop.run_in_executor"))
                return
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ROUND_METHODS):
            self.findings.append(self.source.finding(
                node, self.rule.id,
                f"synchronous round call '.{node.func.attr}()' inside "
                f"async def — route it through loop.run_in_executor"))


class AsyncBlockingRule(Rule):
    id = "async-blocking"
    summary = ("gateway async def bodies must not call blocking "
               "operations directly")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        if not (source.module == "repro.gateway"
                or source.module.startswith("repro.gateway.")):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                scanner = _AsyncBodyScanner(self, source)
                for stmt in node.body:
                    scanner.visit(stmt)
                yield from scanner.findings
