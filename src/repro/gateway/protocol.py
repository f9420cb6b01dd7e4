"""The gateway wire format: protocol v2, in JSON or binary frames.

Every message — request or response, either direction — is one *frame*.
Two codecs share the TCP stream and are told apart from the first bytes:

JSON (codec ``"json"``)
    A 4-byte big-endian unsigned length prefix followed by exactly that
    many bytes of UTF-8 JSON encoding a single object.  Debuggable with
    ``nc``-grade tooling; float windows ride as nested lists.

Binary (codec ``"binary"``)
    A 16-byte little-endian struct header — magic, version, op, flags,
    array count, meta length, payload length (see
    :mod:`repro.utils.binframe`) — followed by a small JSON meta section
    and the raw little-endian float64 buffers of every array field
    (``windows``, ``scores``).  No decimal repr/parse on the hot path;
    arrays decode to writable float64 ndarrays, bit-identical to what
    was sent.

The two magic bytes can never begin a JSON frame (a valid JSON length
prefix is bounded by ``MAX_FRAME_BYTES``, so its first byte is tiny),
which is what lets one connection carry both codecs frame by frame.
There is one protocol version, :data:`PROTOCOL_VERSION`, and no
negotiation: :class:`~repro.gateway.GatewayClient` sends every frame as
binary, and the server answers each frame in the codec it arrived in,
so a peer may send its control frames as JSON and its windows as
binary on one connection.

Requests carry ``{"v": 2, "op": ..., "id": ...}`` plus op-specific
fields (a binary frame's header version byte must say 2 as well);
responses echo the request ``id`` with ``{"ok": true, ...}`` or a typed
error ``{"ok": false, "error": {"code": ..., "message": ...}}``, always
at ``"v": 2``.  Anything the peer cannot parse at the framing layer
raises :class:`FrameError` (the server answers with a ``bad_frame``
error and closes the connection, since a corrupt stream cannot be
re-synchronized).  The frame-size cap is enforced on *both* ends of the
pipe: readers refuse to buffer an oversized frame, and the encoders
raise :class:`FrameError` before sending one a peer would reject.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np

from ..utils.binframe import (
    BIN_HEADER,
    BIN_MAGIC,
    BinaryFormatError,
    decode_body as _decode_binary_tail,
    encode_payload as _encode_binary,
    is_binary,
    parse_header,
)

__all__ = [
    "PROTOCOL_VERSION", "CODECS", "MAX_FRAME_BYTES",
    "OPS", "ERROR_CODES", "FLAG_RESPONSE", "CODEC_KEY",
    "FrameError", "RequestError",
    "encode_frame", "decode_body", "frame_codec",
    "read_frame", "write_frame", "recv_frame", "send_frame",
    "request_frame", "ok_frame", "error_frame", "validate_request",
]

#: The one protocol version; every request must carry it and every
#: response does.
PROTOCOL_VERSION = 2

#: Wire codecs a peer may speak; see the module docstring.
CODECS = ("json", "binary")

#: Reserved response-payload key naming the codec a frame arrived in
#: (added by the readers, stripped by the encoders; never on the wire).
CODEC_KEY = "_codec"

#: Upper bound on one frame (JSON body, or binary header+meta+payload).
#: Generous for arrival batches (a window is T x frame_dim float64s)
#: while refusing to buffer an unbounded stream from a confused or
#: hostile peer.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Operations the gateway understands.  A binary frame's header carries
#: the op as ``index + 1`` (0 means "no op": responses).
OPS = ("ingest", "scores", "attach", "detach", "stats", "shutdown")

#: Binary header flag bits.
FLAG_RESPONSE = 0x0001

#: Typed error codes carried in ``{"error": {"code": ...}}`` frames.
ERROR_CODES = (
    "bad_frame",         # unframeable bytes: truncated/oversized/non-JSON
    "bad_request",       # well-framed but missing/invalid fields
    "version_mismatch",  # request "v" is not PROTOCOL_VERSION
    "unknown_op",        # "op" not in OPS
    "unknown_stream",    # stream name not attached to the fleet
    "not_attached",      # ingest/scores before attach on this connection
    "backpressure",      # admission control: per-stream queue is full
    "durability",        # served but its WAL commit failed: NOT on disk
    "shutting_down",     # server is draining; no new work accepted
    "internal",          # serving round failed server-side
)


class FrameError(Exception):
    """The byte stream does not contain a well-formed frame."""


class RequestError(Exception):
    """A well-framed request that cannot be served; carries a typed code."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------
def frame_codec(payload: dict) -> str:
    """The codec a decoded frame arrived in (``"json"`` by default)."""
    return payload.get(CODEC_KEY, "json")


def _binary_op_code(payload: dict) -> int:
    op = payload.get("op")
    return OPS.index(op) + 1 if op in OPS else 0


def encode_frame(payload: dict, codec: str = "json",
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message to its on-wire bytes in ``codec``.

    The frame cap is enforced here, on the write side: an oversized
    message raises :class:`FrameError` *before* any byte is sent,
    instead of shipping a frame the peer will reject after buffering it.
    """
    payload = {key: value for key, value in payload.items()
               if key != CODEC_KEY}
    if codec == "binary":
        try:
            return _encode_binary(
                payload,
                version=PROTOCOL_VERSION,
                op=_binary_op_code(payload),
                flags=FLAG_RESPONSE if "ok" in payload else 0,
                max_bytes=max_bytes)
        except BinaryFormatError as exc:
            raise FrameError(str(exc)) from None
    if codec != "json":
        raise FrameError(f"unknown codec {codec!r} "
                         f"(known: {', '.join(CODECS)})")
    body = json.dumps(_jsonable(payload), separators=(",", ":"),
                      ).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameError(f"frame body of {len(body)} bytes exceeds the "
                         f"{max_bytes}-byte limit")
    return _HEADER.pack(len(body)) + body


def _jsonable(payload: dict) -> dict:
    """Arrays are first-class payload values for the binary codec; the
    JSON codec spells them as nested lists."""
    if not any(isinstance(value, np.ndarray) for value in payload.values()):
        return payload
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in payload.items()}


def decode_body(body: bytes) -> dict:
    """Parse a JSON frame body; :class:`FrameError` on anything but one
    JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed JSON frame body: {exc}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


def _decode_binary_frame(header_bytes: bytes, tail: bytes) -> dict:
    """Binary header + body -> payload dict tagged with its codec."""
    try:
        header = parse_header(header_bytes)
        payload = _decode_binary_tail(header, tail)
    except BinaryFormatError as exc:
        raise FrameError(str(exc)) from None
    # The header's version byte is the frame's claim; a meta "v" may
    # only repeat it.
    if header.version != PROTOCOL_VERSION or "v" not in payload:
        payload["v"] = header.version
    if header.op and "op" not in payload:
        if header.op > len(OPS):
            raise FrameError(f"binary header op code {header.op} is out of "
                             f"range (known ops: {', '.join(OPS)})")
        payload["op"] = OPS[header.op - 1]
    payload[CODEC_KEY] = "binary"
    return payload


def _check_length(length: int, max_bytes: int) -> None:
    if length == 0:
        raise FrameError("zero-length frame")
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds the "
                         f"{max_bytes}-byte limit")


def _check_binary_lengths(header, max_bytes: int) -> None:
    total = BIN_HEADER.size + header.body_len
    if total > max_bytes:
        raise FrameError(f"binary frame of {total} bytes exceeds the "
                         f"{max_bytes}-byte limit")


# ---------------------------------------------------------------------
# Asyncio framing
# ---------------------------------------------------------------------
async def read_frame(reader, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame (either codec) from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameError` on a truncated or malformed frame.  Binary
    frames come back with ndarray array fields and ``_codec: "binary"``.
    """
    prefix = await reader.read(_HEADER.size)
    if not prefix:
        return None
    while len(prefix) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(prefix))
        if not more:
            raise FrameError("truncated frame header")
        prefix += more
    if is_binary(prefix):
        rest = BIN_HEADER.size - len(prefix)
        try:
            header_bytes = prefix + await reader.readexactly(rest)
        except Exception:
            raise FrameError("truncated binary frame header") from None
        try:
            header = parse_header(header_bytes)
        except BinaryFormatError as exc:
            raise FrameError(str(exc)) from None
        _check_binary_lengths(header, max_bytes)
        try:
            tail = await reader.readexactly(header.body_len)
        except Exception:  # IncompleteReadError on EOF mid-body
            raise FrameError("truncated binary frame body") from None
        return _decode_binary_frame(header_bytes, tail)
    (length,) = _HEADER.unpack(prefix)
    _check_length(length, max_bytes)
    try:
        body = await reader.readexactly(length)
    except Exception:  # IncompleteReadError on EOF mid-body
        raise FrameError("truncated frame body") from None
    return decode_body(body)


async def write_frame(writer, payload: dict, codec: str = "json",
                      max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Write one frame to an asyncio stream and flush it; the size cap
    applies before anything is sent."""
    writer.write(encode_frame(payload, codec=codec, max_bytes=max_bytes))
    await writer.drain()


# ---------------------------------------------------------------------
# Blocking-socket framing
# ---------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Blocking read of exactly ``count`` bytes; ``None`` on immediate
    EOF, :class:`FrameError` on EOF mid-read."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Blocking-socket twin of :func:`read_frame`."""
    prefix = _recv_exactly(sock, _HEADER.size)
    if prefix is None:
        return None
    if is_binary(prefix):
        rest = _recv_exactly(sock, BIN_HEADER.size - len(prefix))
        if rest is None:
            raise FrameError("truncated binary frame header")
        header_bytes = prefix + rest
        try:
            header = parse_header(header_bytes)
        except BinaryFormatError as exc:
            raise FrameError(str(exc)) from None
        _check_binary_lengths(header, max_bytes)
        tail = _recv_exactly(sock, header.body_len)
        if tail is None:
            raise FrameError("truncated binary frame body")
        return _decode_binary_frame(header_bytes, tail)
    (length,) = _HEADER.unpack(prefix)
    _check_length(length, max_bytes)
    body = _recv_exactly(sock, length)
    if body is None:
        raise FrameError("truncated frame body")
    return decode_body(body)


def send_frame(sock: socket.socket, payload: dict, codec: str = "json",
               max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Blocking-socket twin of :func:`write_frame`."""
    sock.sendall(encode_frame(payload, codec=codec, max_bytes=max_bytes))


# ---------------------------------------------------------------------
# Message constructors / validation
# ---------------------------------------------------------------------
def request_frame(op: str, request_id: int, **fields) -> dict:
    return {"v": PROTOCOL_VERSION, "op": op, "id": request_id, **fields}


def ok_frame(request_id, **payload) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, **payload}


def error_frame(request_id, code: str, message: str) -> dict:
    assert code in ERROR_CODES, code
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def validate_request(payload: dict) -> str:
    """Check the request envelope; returns the op.

    Raises :class:`RequestError` with a typed code on a version other
    than :data:`PROTOCOL_VERSION` (an ``int``: ``true``, ``2.0`` and
    ``"2"`` are refused too), a missing/invalid op, or a malformed
    ``id`` (the id must be a JSON scalar so it can be echoed back
    verbatim).
    """
    version = payload.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise RequestError(
            "version_mismatch",
            f"protocol version {version!r} unsupported "
            f"(server speaks {PROTOCOL_VERSION})")
    request_id = payload.get("id")
    if not isinstance(request_id, (int, str, type(None))) \
            or isinstance(request_id, bool):
        raise RequestError("bad_request",
                           f"request id must be an int, string or null, "
                           f"got {type(request_id).__name__}")
    op = payload.get("op")
    if not isinstance(op, str):
        raise RequestError("bad_request", "request has no 'op' field")
    if op not in OPS:
        raise RequestError("unknown_op",
                           f"unknown op {op!r} (known: {', '.join(OPS)})")
    return op
