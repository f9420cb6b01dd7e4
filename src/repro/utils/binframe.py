"""The binary frame body codec: struct header + raw float64 buffers.

JSON frames carry float windows as ``[[...], ...]`` literals — decimal
repr, parse, and per-element boxing on both ends.  A *binary body* keeps
the small fields as a JSON "meta" section but ships every numpy array as
its raw little-endian float64 bytes::

    [magic u16][version u8][op u8][flags u16][narrays u16]
    [meta_len u32][payload_len u32]          <- 16-byte struct header
    [meta_len bytes of UTF-8 JSON meta]
    [payload_len bytes: the arrays' C-order float64 data, concatenated]

The header is little-endian (:data:`BIN_HEADER`); the two magic bytes
can never open a length-prefixed JSON frame (a valid JSON length prefix
is at most ``MAX_FRAME_BYTES`` big-endian, so its first byte is tiny),
which lets both codecs share one TCP stream and be told apart from the
first bytes alone.  ``meta`` holds the payload dict minus its arrays
plus a ``"_arrays"`` table of ``[field, shape]`` pairs, in payload
order, so decoding rebuilds the exact dict that was encoded — float64
round-trips bit-for-bit by construction, no repr/parse in the loop.

This module is deliberately below every serving layer (``repro.utils``):
the gateway protocol wraps it for the wire (adding op-code mapping and
stream framing) and the write-ahead log reuses it verbatim for
``ingest`` record payloads, replacing base64 window blobs.
"""

from __future__ import annotations

import json
import struct
from math import prod
from typing import NamedTuple

import numpy as np

__all__ = ["BIN_MAGIC", "BIN_HEADER", "BinaryHeader", "BinaryFormatError",
           "is_binary", "parse_header", "encode_payload", "decode_body",
           "decode_payload", "split_payload"]

#: Two bytes no JSON frame can start with (see module docstring).
BIN_MAGIC = b"\xb7\xf3"

#: magic, version, op, flags, narrays, meta_len, payload_len.
BIN_HEADER = struct.Struct("<2sBBHHII")

_FLOAT64_LE = np.dtype("<f8")


class BinaryHeader(NamedTuple):
    """The parsed fixed header of one binary body."""

    version: int
    op: int
    flags: int
    narrays: int
    meta_len: int
    payload_len: int

    @property
    def body_len(self) -> int:
        """Bytes that follow the 16-byte header."""
        return self.meta_len + self.payload_len


class BinaryFormatError(ValueError):
    """The bytes do not hold a well-formed binary body."""


def is_binary(prefix: bytes) -> bool:
    """Whether a byte prefix (>= 2 bytes) opens a binary body."""
    return prefix[:2] == BIN_MAGIC


def parse_header(header: bytes,
                 max_bytes: int | None = None) -> BinaryHeader:
    """Parse and sanity-check the 16-byte fixed header."""
    if len(header) != BIN_HEADER.size:
        raise BinaryFormatError(
            f"binary header must be {BIN_HEADER.size} bytes, "
            f"got {len(header)}")
    magic, version, op, flags, narrays, meta_len, payload_len = \
        BIN_HEADER.unpack(header)
    if magic != BIN_MAGIC:
        raise BinaryFormatError(
            f"bad binary magic {magic.hex()} (expected {BIN_MAGIC.hex()})")
    if meta_len == 0:
        raise BinaryFormatError("binary body has a zero-length meta section")
    if max_bytes is not None \
            and BIN_HEADER.size + meta_len + payload_len > max_bytes:
        raise BinaryFormatError(
            f"binary body of {BIN_HEADER.size + meta_len + payload_len} "
            f"bytes exceeds the {max_bytes}-byte limit")
    return BinaryHeader(version=version, op=op, flags=flags,
                        narrays=narrays, meta_len=meta_len,
                        payload_len=payload_len)


def split_payload(payload: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Partition a payload dict into (JSON-able meta, array fields).

    Every top-level :class:`numpy.ndarray` value becomes a float64 array
    field; everything else stays in the meta dict untouched.
    """
    meta: dict = {}
    arrays: dict[str, np.ndarray] = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            arrays[key] = np.ascontiguousarray(value, dtype=_FLOAT64_LE)
        else:
            meta[key] = value
    return meta, arrays


def encode_payload(payload: dict, *, version: int = 1, op: int = 0,
                   flags: int = 0, max_bytes: int | None = None) -> bytes:
    """Serialize one payload dict to a self-delimiting binary body.

    Array fields (top-level ``numpy.ndarray`` values) ride as raw
    little-endian float64 buffers; the rest is the JSON meta section.
    ``max_bytes`` enforces the frame cap at *write* time — better a
    :class:`BinaryFormatError` here than an oversized body the peer will
    reject after buffering it.
    """
    meta, arrays = split_payload(payload)
    meta["_arrays"] = [[key, list(array.shape)]
                       for key, array in arrays.items()]
    try:
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise BinaryFormatError(
            f"payload meta is not JSON-serializable: {exc}") from None
    payload_len = sum(array.nbytes for array in arrays.values())
    total = BIN_HEADER.size + len(meta_bytes) + payload_len
    if max_bytes is not None and total > max_bytes:
        raise BinaryFormatError(
            f"binary body of {total} bytes exceeds the "
            f"{max_bytes}-byte limit")
    if not 0 <= version <= 0xFF or not 0 <= op <= 0xFF \
            or not 0 <= flags <= 0xFFFF:
        raise BinaryFormatError(
            f"header field out of range: version={version} op={op} "
            f"flags={flags}")
    header = BIN_HEADER.pack(BIN_MAGIC, version, op, flags, len(arrays),
                             len(meta_bytes), payload_len)
    # The C-contiguous arrays are their own buffers: the join is the one
    # copy of their bytes.
    return b"".join([header, meta_bytes, *arrays.values()])


def decode_body(header: BinaryHeader, body: bytes | memoryview) -> dict:
    """Decode the bytes after the fixed header (meta + buffers) back to
    the payload dict; arrays come back as fresh writable float64
    ndarrays, each one copy of its bytes in ``body``."""
    body = memoryview(body)
    if len(body) != header.body_len:
        raise BinaryFormatError(
            f"binary body is {len(body)} bytes; header promised "
            f"{header.body_len}")
    try:
        meta = json.loads(str(body[:header.meta_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BinaryFormatError(
            f"malformed binary meta section: {exc}") from None
    if not isinstance(meta, dict):
        raise BinaryFormatError(
            f"binary meta must be a JSON object, "
            f"got {type(meta).__name__}")
    table = meta.pop("_arrays", None)
    if not isinstance(table, list) or len(table) != header.narrays:
        raise BinaryFormatError(
            f"binary meta '_arrays' table has "
            f"{len(table) if isinstance(table, list) else 'no'} entries; "
            f"header promised {header.narrays}")
    payload = dict(meta)
    offset = header.meta_len
    end = header.body_len
    for entry in table:
        if (not isinstance(entry, list) or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], list)
                or not all(isinstance(dim, int) and not isinstance(dim, bool)
                           and dim >= 0 for dim in entry[1])):
            raise BinaryFormatError(
                f"malformed '_arrays' table entry: {entry!r}")
        field, shape = entry
        nbytes = prod(shape) * _FLOAT64_LE.itemsize if shape else \
            _FLOAT64_LE.itemsize
        if offset + nbytes > end:
            raise BinaryFormatError(
                f"array field {field!r} with shape {shape} needs {nbytes} "
                f"payload bytes but only {end - offset} remain")
        # bytearray, not bytes: the rebuilt arrays view this buffer, and
        # downstream code expects writable windows/scores.  The one copy:
        # ``body`` is a memoryview, so the slice copies nothing.
        chunk = bytearray(body[offset:offset + nbytes])
        payload[field] = np.frombuffer(
            chunk, dtype=_FLOAT64_LE).reshape(shape)
        offset += nbytes
    if offset != end:
        raise BinaryFormatError(
            f"binary payload has {end - offset} trailing bytes not "
            f"claimed by any array field")
    return payload


def decode_payload(data: bytes,
                   max_bytes: int | None = None) -> tuple[dict, BinaryHeader]:
    """Decode one complete binary body (header included); returns the
    payload dict and its parsed header."""
    if len(data) < BIN_HEADER.size:
        raise BinaryFormatError(
            f"binary body of {len(data)} bytes is shorter than the "
            f"{BIN_HEADER.size}-byte header")
    header = parse_header(data[:BIN_HEADER.size], max_bytes=max_bytes)
    return decode_body(header, memoryview(data)[BIN_HEADER.size:]), header
