"""data-rebind: model arrays are replaced, never written in place.

``KGReasoner._current_token_side`` keeps the GNN's token side for as long
as every array it was computed from is still the *same object*, and the
kernels that lay weights out per call (``Tensor.last_query_attention``,
``Tensor.frozen_batch_norm``) keep nothing because a new value is always a
new array.  Both hold only while every writer under ``src/`` rebinds
(``tensor.data = new``) — so a subscript store, an augmented assignment,
``out=`` or ``np.copyto`` aimed at a ``.data``, ``.running_mean``,
``.running_var`` or ``.token_embeddings`` attribute is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..core import Finding, Rule, SourceFile

__all__ = ["DataRebindRule"]

#: attributes whose arrays are compared by identity, never by value
REBOUND = frozenset({"data", "running_mean", "running_var",
                     "token_embeddings"})


def _rebound_attr(node: ast.expr) -> str | None:
    """The guarded attribute a write to ``node`` lands in: ``x.data``
    itself or any ``x.data[...]`` element of it."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in REBOUND:
        return node.attr
    return None


def _stored(target: ast.expr) -> Iterator[ast.expr]:
    """The element stores of an assignment target (tuples unpacked)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for item in target.elts:
            yield from _stored(item)
    elif isinstance(target, ast.Starred):
        yield from _stored(target.value)
    elif isinstance(target, ast.Subscript):
        yield target


class DataRebindRule(Rule):
    id = "data-rebind"
    summary = ("parameter, buffer and token arrays under src/ are rebound, "
               "never stored into in place")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        if source.module.split(".")[0] != "repro":
            return
        for node in ast.walk(source.tree):
            hits: list[tuple[str, str | None]] = []
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                hits = [("subscript store into", _rebound_attr(stored))
                        for target in targets for stored in _stored(target)]
            elif isinstance(node, ast.AugAssign):
                hits = [("augmented assignment to", _rebound_attr(node.target))]
            elif isinstance(node, ast.Call):
                hits = [("out= aimed at", _rebound_attr(keyword.value))
                        for keyword in node.keywords if keyword.arg == "out"]
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name == "copyto" and node.args:
                    hits.append(("copyto into", _rebound_attr(node.args[0])))
            for what, attr in hits:
                if attr is not None:
                    yield source.finding(
                        node, self.id,
                        f"{what} '.{attr}' — rebind it to a new array "
                        f"(caches compare these arrays by identity)")
