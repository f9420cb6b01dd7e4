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
``narrays`` counts the top-level array fields; a nested array is listed
after them with a ``null`` field and leaves a ``{"_array": index}``
reference in its place, so nesting depth and count are unbounded.

This module is deliberately below every serving layer (``repro.utils``):
the gateway protocol wraps it for the wire (adding op-code mapping and
stream framing); WAL records and blobs and every file that stores
arrays (:func:`write_file` / :func:`read_file`) are such bodies.
"""

from __future__ import annotations

import hashlib
import json
import struct
from math import prod
from typing import NamedTuple

import numpy as np

from .serialization import atomic_write_bytes

__all__ = ["BIN_MAGIC", "BIN_HEADER", "BinaryHeader", "BinaryFormatError",
           "is_binary", "parse_header", "encode_payload", "decode_body",
           "decode_payload", "split_payload", "write_file", "read_file"]

#: Two bytes no JSON frame can start with (see module docstring).
BIN_MAGIC = b"\xb7\xf3"

#: magic, version, op, flags, narrays, meta_len, payload_len.
BIN_HEADER = struct.Struct("<2sBBHHII")

_FLOAT64_LE = np.dtype("<f8")

_REF = "_array"  # a nested array's reference to its table entry


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

    Arrays anywhere in the payload ride as raw little-endian float64
    buffers; the rest is the JSON meta section.  ``max_bytes`` enforces
    the frame cap at *write* time — better a :class:`BinaryFormatError`
    here than an oversized body the peer will reject after buffering it.
    """
    meta, fields = split_payload(payload)
    table = [[key, list(array.shape)] for key, array in fields.items()]
    arrays = list(fields.values())

    def nested(value):  # the JSON encoder met a non-JSON value
        if not isinstance(value, np.ndarray):
            raise TypeError(f"{type(value).__name__} is not JSON-serializable")
        arrays.append(np.ascontiguousarray(value, dtype=_FLOAT64_LE))
        table.append([None, list(arrays[-1].shape)])
        return {_REF: len(arrays) - 1}

    # The table is the meta's last key, so the dump has met (and listed)
    # every nested array by the time it writes the table.
    meta["_arrays"] = table
    try:
        meta_bytes = json.dumps(meta, separators=(",", ":"),
                                default=nested).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise BinaryFormatError(
            f"payload meta is not JSON-serializable: {exc}") from None
    payload_len = sum(array.nbytes for array in arrays)
    total = BIN_HEADER.size + len(meta_bytes) + payload_len
    if max_bytes is not None and total > max_bytes:
        raise BinaryFormatError(
            f"binary body of {total} bytes exceeds the "
            f"{max_bytes}-byte limit")
    try:  # version, op, flags, top-level array count or a length
        header = BIN_HEADER.pack(BIN_MAGIC, version, op, flags, len(fields),
                                 len(meta_bytes), payload_len)
    except struct.error as exc:
        raise BinaryFormatError(f"header field out of range: {exc}") from None
    # The C-contiguous arrays are their own buffers: the join is the one
    # copy of their bytes.
    return b"".join([header, meta_bytes, *arrays])


def decode_body(header: BinaryHeader, body: bytes | memoryview, *,
                copy: bool = True) -> dict:
    """Decode the bytes after the fixed header (meta + buffers) back to
    the payload dict; arrays come back as writable float64 ndarrays, each
    one copy of its bytes in ``body`` (``copy=False``: views of ``body``,
    a writable buffer read for this decode alone)."""
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
    if not isinstance(table, list) or len(table) < header.narrays:
        raise BinaryFormatError(
            f"binary meta '_arrays' table has "
            f"{len(table) if isinstance(table, list) else 'no'} entries; "
            f"header promised {header.narrays} array fields")
    payload = dict(meta)
    arrays: list[np.ndarray] = []
    offset = header.meta_len
    end = header.body_len
    for index, entry in enumerate(table):
        if (not isinstance(entry, list) or len(entry) != 2
                or not (isinstance(entry[0], str) if index < header.narrays
                        else entry[0] is None)
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
        # Copies are bytearrays (writable windows/scores); ``body`` is a
        # memoryview, so the slice itself copies nothing.
        chunk = body[offset:offset + nbytes]
        arrays.append(np.frombuffer(bytearray(chunk) if copy else chunk,
                                    dtype=_FLOAT64_LE).reshape(shape))
        if index < header.narrays:
            payload[field] = arrays[-1]
        offset += nbytes
    if offset != end:
        raise BinaryFormatError(
            f"binary payload has {end - offset} trailing bytes not "
            f"claimed by any array field")
    if len(table) == header.narrays:
        return payload

    def resolve(value):
        if isinstance(value, list):
            return [resolve(item) for item in value]
        if not isinstance(value, dict):
            return value
        if value.keys() != {_REF}:
            return {key: resolve(item) for key, item in value.items()}
        index = value[_REF]
        if not isinstance(index, int) \
                or index not in range(header.narrays, len(arrays)):
            raise BinaryFormatError(f"bad nested array reference {value!r}")
        return arrays[index]
    return resolve(payload)


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


def write_file(path, payload: dict) -> None:
    """Write ``payload`` crash-safely as one binary body."""
    atomic_write_bytes(path, encode_payload(payload))


def read_file(path, sha256: str | None = None) -> dict:
    """Decode a :func:`write_file` file, read once into a buffer placed so
    that its arrays, which view it, start 8-byte aligned.  With ``sha256``
    the file must hash to it."""
    with open(path, "rb") as handle:
        head = handle.read(BIN_HEADER.size)
        try:
            header = parse_header(head)
        except BinaryFormatError as exc:
            raise BinaryFormatError(
                f"{path} is not a binary array file ({exc}); older versions "
                "wrote base64-in-JSON: re-create it with this version") from None
        raw = np.empty(header.body_len + 8, np.uint8)
        body = raw[-(raw.ctypes.data + header.meta_len) % 8:][:header.body_len]
        if handle.readinto(body) != header.body_len or handle.read(1):
            raise BinaryFormatError(f"{path} is truncated or overlong")
    if sha256 is not None:
        digest = hashlib.sha256(head)
        digest.update(body)
        if digest.hexdigest() != sha256:
            raise BinaryFormatError(f"{path} does not hash to {sha256}")
    return decode_body(header, body, copy=False)
