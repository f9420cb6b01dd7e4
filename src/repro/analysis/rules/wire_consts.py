"""wire-consts: the two wire modules agree on their framing constants.

:mod:`repro.utils.binframe` (binary body codec) and
:mod:`repro.gateway.protocol` (stream framing) each carry
constants the other relies on: the 2-byte magic, the 16-byte
little-endian binary header, the big-endian u32 JSON length prefix, the
32 MiB frame cap, op/flag field widths.  This rule reads the constants
out of both modules' ASTs (folding literal arithmetic like
``32 * 1024 * 1024``) and checks, per module and across them:

* ``BIN_MAGIC`` is exactly 2 bytes and ``BIN_HEADER`` is an explicit
  little-endian struct of exactly 16 bytes whose first field matches the
  magic length;
* the JSON length prefix ``_HEADER`` stays ``">I"`` (big-endian u32) and
  ``MAX_FRAME_BYTES`` fits in it;
* ``len(OPS) + 1`` fits the u8 op field, ``PROTOCOL_VERSION`` the u8
  version field, ``FLAG_RESPONSE`` the u16 flags field;
* every framing entry point (``encode_frame``/``read_frame``/
  ``write_frame``/``recv_frame``/``send_frame``) defaults its
  ``max_bytes`` parameter to ``MAX_FRAME_BYTES`` — the cap is enforced
  on encode *and* decode paths — and both readers call the
  ``_check_length`` / ``_check_binary_lengths`` guards;
* cross-module: the first magic byte exceeds the first byte of any
  valid big-endian length prefix (``MAX_FRAME_BYTES >> 24``), the
  invariant that lets one TCP stream carry both codecs.

Checks whose module was not linted are skipped (linting a single file
should not report the other file as missing), so the self-check test
runs the rule over all of ``src/`` to see both sides.
"""

from __future__ import annotations

import ast
import struct
from typing import Iterable

from ..core import Finding, Rule, SourceFile

__all__ = ["WireConstsRule", "BINFRAME_MODULE", "PROTOCOL_MODULE"]

BINFRAME_MODULE = "repro.utils.binframe"
PROTOCOL_MODULE = "repro.gateway.protocol"

#: protocol functions that must default ``max_bytes=MAX_FRAME_BYTES``
FRAMING_FUNCS = ("encode_frame", "read_frame", "write_frame",
                 "recv_frame", "send_frame")

#: frame readers that must call both length guards before buffering
READER_FUNCS = ("read_frame", "recv_frame")

_BIN_HEADER_SIZE = 16  # documented fixed header size, bytes


def _fold(node: ast.expr):
    """Evaluate a literal constant expression; ``None`` if not literal."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Tuple):
        items = [_fold(item) for item in node.elts]
        return None if any(item is None for item in items) else tuple(items)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _fold(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp):
        left, right = _fold(node.left), _fold(node.right)
        if left is None or right is None:
            return None
        ops = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
               ast.Mult: lambda a, b: a * b,
               ast.Pow: lambda a, b: a ** b,
               ast.LShift: lambda a, b: a << b,
               ast.RShift: lambda a, b: a >> b,
               ast.FloorDiv: lambda a, b: a // b}
        func = ops.get(type(node.op))
        return None if func is None else func(left, right)
    # struct.Struct("...") -> its format string
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "Struct" and len(node.args) == 1):
        return _fold(node.args[0])
    return None


class _ModuleFacts:
    def __init__(self, source: SourceFile):
        self.source = source
        self.consts: dict[str, tuple[object, ast.AST]] = {}
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in source.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = _fold(node.value)
                if value is not None:
                    self.consts[node.targets[0].id] = (value, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node

    def const(self, name: str):
        entry = self.consts.get(name)
        return entry[0] if entry else None

    def anchor(self, name: str) -> ast.AST:
        entry = self.consts.get(name)
        return entry[1] if entry else self.source.tree


def _max_bytes_default(func) -> ast.expr | None:
    """The default expression of a ``max_bytes`` parameter, if any."""
    args = func.args
    positional = args.posonlyargs + args.args
    offset = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if arg.arg == "max_bytes" and index >= offset:
            return args.defaults[index - offset]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == "max_bytes":
            return default
    return None


def _called_names(func) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


class WireConstsRule(Rule):
    id = "wire-consts"
    summary = ("binframe and gateway protocol framing constants stay "
               "mutually consistent")

    def __init__(self) -> None:
        self.binframe: _ModuleFacts | None = None
        self.protocol: _ModuleFacts | None = None

    def check(self, source: SourceFile) -> Iterable[Finding]:
        if source.module == BINFRAME_MODULE:
            self.binframe = _ModuleFacts(source)
        elif source.module == PROTOCOL_MODULE:
            self.protocol = _ModuleFacts(source)
        return ()

    def finalize(self) -> Iterable[Finding]:
        if self.binframe is not None:
            yield from self._check_binframe(self.binframe)
        if self.protocol is not None:
            yield from self._check_protocol(self.protocol)
        if self.binframe is not None and self.protocol is not None:
            yield from self._check_cross(self.binframe, self.protocol)

    def _fail(self, facts: _ModuleFacts, name: str, message: str) -> Finding:
        return facts.source.finding(facts.anchor(name), self.id, message)

    def _check_binframe(self, facts: _ModuleFacts) -> Iterable[Finding]:
        magic = facts.const("BIN_MAGIC")
        if not isinstance(magic, bytes) or len(magic) != 2:
            yield self._fail(facts, "BIN_MAGIC",
                             "BIN_MAGIC must be a 2-byte literal "
                             f"(found {magic!r})")
            magic = None
        fmt = facts.const("BIN_HEADER")
        if not isinstance(fmt, str):
            yield self._fail(facts, "BIN_HEADER",
                             "BIN_HEADER must be struct.Struct(<literal>)")
            return
        if not fmt.startswith("<"):
            yield self._fail(facts, "BIN_HEADER",
                             f"BIN_HEADER format {fmt!r} must be explicit "
                             f"little-endian ('<' prefix)")
        try:
            size = struct.calcsize(fmt)
        except struct.error as exc:
            yield self._fail(facts, "BIN_HEADER",
                             f"BIN_HEADER format {fmt!r} is invalid: {exc}")
            return
        if size != _BIN_HEADER_SIZE:
            yield self._fail(facts, "BIN_HEADER",
                             f"BIN_HEADER is {size} bytes; the wire format "
                             f"documents a {_BIN_HEADER_SIZE}-byte header")
        if magic is not None and not fmt.lstrip("<").startswith(
                f"{len(magic)}s"):
            yield self._fail(facts, "BIN_HEADER",
                             f"BIN_HEADER format {fmt!r} does not open with "
                             f"a {len(magic)}-byte magic field "
                             f"('{len(magic)}s')")

    def _check_protocol(self, facts: _ModuleFacts) -> Iterable[Finding]:
        header = facts.const("_HEADER")
        if header != ">I":
            yield self._fail(facts, "_HEADER",
                             f"JSON length prefix _HEADER must stay "
                             f"struct.Struct('>I') (found {header!r})")
        cap = facts.const("MAX_FRAME_BYTES")
        if not isinstance(cap, int):
            yield self._fail(facts, "MAX_FRAME_BYTES",
                             "MAX_FRAME_BYTES must be a literal int "
                             "expression")
            cap = None
        elif not 0 < cap <= 0xFFFFFFFF:
            yield self._fail(facts, "MAX_FRAME_BYTES",
                             f"MAX_FRAME_BYTES={cap} does not fit the "
                             f"u32 length prefix")
        ops = facts.const("OPS")
        if isinstance(ops, tuple) and len(ops) + 1 > 0xFF:
            yield self._fail(facts, "OPS",
                             f"{len(ops)} ops no longer fit the u8 binary "
                             f"op field (op rides as index + 1)")
        version = facts.const("PROTOCOL_VERSION")
        if isinstance(version, int) and not 0 <= version <= 0xFF:
            yield self._fail(facts, "PROTOCOL_VERSION",
                             f"PROTOCOL_VERSION={version} does not fit the "
                             f"u8 binary version field")
        flags = facts.const("FLAG_RESPONSE")
        if isinstance(flags, int) and not 0 <= flags <= 0xFFFF:
            yield self._fail(facts, "FLAG_RESPONSE",
                             f"FLAG_RESPONSE={flags:#x} does not fit the "
                             f"u16 binary flags field")
        for name in FRAMING_FUNCS:
            func = facts.functions.get(name)
            if func is None:
                yield facts.source.finding(
                    facts.source.tree, self.id,
                    f"framing function '{name}' is missing from "
                    f"{PROTOCOL_MODULE}")
                continue
            default = _max_bytes_default(func)
            if not (isinstance(default, ast.Name)
                    and default.id == "MAX_FRAME_BYTES"):
                yield facts.source.finding(
                    func, self.id,
                    f"'{name}' must take max_bytes defaulting to "
                    f"MAX_FRAME_BYTES so the cap holds on both "
                    f"encode and decode paths")
        for name in READER_FUNCS:
            func = facts.functions.get(name)
            if func is None:
                continue
            called = _called_names(func)
            for guard in ("_check_length", "_check_binary_lengths"):
                if guard not in called:
                    yield facts.source.finding(
                        func, self.id,
                        f"reader '{name}' never calls {guard}() — the "
                        f"frame cap must be enforced before buffering")

    def _check_cross(self, binframe: _ModuleFacts,
                     protocol: _ModuleFacts) -> Iterable[Finding]:
        magic = binframe.const("BIN_MAGIC")
        cap = protocol.const("MAX_FRAME_BYTES")
        if isinstance(magic, bytes) and magic and isinstance(cap, int):
            if magic[0] <= (cap >> 24):
                yield self._fail(
                    protocol, "MAX_FRAME_BYTES",
                    f"codec disambiguation broken: BIN_MAGIC[0]="
                    f"{magic[0]:#04x} must exceed the first byte of any "
                    f"valid JSON length prefix (MAX_FRAME_BYTES >> 24 = "
                    f"{cap >> 24:#04x})")
