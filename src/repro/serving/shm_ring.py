"""Shared-memory message buffers for parent<->worker traffic.

No fleet uses them; perfbench's layer probe still measures a round trip
through one.  Pickling a round's windows and scores through a
:mod:`multiprocessing` pipe costs two copies and a kernel round-trip per
message; at gateway rates the pipe becomes the hot path.  This module moves
the *payload* bytes into a shared buffer per direction — the pipe stays
as the control plane (a tiny ``("shm", length)`` doorbell per message,
plus error/"stop" signaling and the happens-before edge that makes the
lock-free buffer safe).

Each buffer is an anonymous file (``os.memfd_create``, or an unnamed
``tempfile.TemporaryFile`` where that is missing) mapped by both sides:
the worker inherits the descriptor, so no name ever exists — nothing to
unlink, and a killed process tree frees the memory with its last
descriptor.

One message at a time: a caller keeps at most one message in
flight per direction (send, then receive), so a message always lands at
offset 0 and the pages a buffer ever touches are those of its largest
message.  Layout: an 8-byte little-endian u64 holding the unread
message's length (0 = empty), then ``capacity`` data bytes.  A message
that does not fit, or a write while the previous message is unread, is
refused — :meth:`RingBuffer.write` returns ``False`` and the caller
falls back to sending the payload inline over the pipe, so capacity
bounds *latency*, never correctness.

Messages themselves are framed with :func:`dumps_message` /
:func:`loads_message`: pickle protocol 5 with out-of-band buffers, so
numpy windows and scores ride as raw bytes instead of pickle opcodes,
and decode into *writable* arrays over a fresh ``bytearray``.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import tempfile

from ..errors import ConfigError

__all__ = ["RingBuffer", "RingError", "dumps_message", "loads_message",
           "DEFAULT_RING_BYTES"]

#: Per-direction buffer capacity.  Big enough for
#: a round's windows at benchmark batch sizes; anything larger falls
#: back to the pipe (counted, not failed).  Untouched pages cost nothing.
DEFAULT_RING_BYTES = 4 * 1024 * 1024

_PENDING = struct.Struct("<Q")      # length of the unread message, 0 = empty

_MSG_COUNT = struct.Struct("<I")    # segments per message (pickle first)
_MSG_LEN = struct.Struct("<Q")      # length of one segment


class RingError(RuntimeError):
    """The buffer or a message frame is in a state that cannot be
    correct under the one-in-flight protocol (length mismatch, bad
    frames, use after close)."""


class RingBuffer:
    """One single-producer/single-consumer message buffer over an
    anonymous shared file.

    :meth:`create` makes a new buffer; the constructor maps a buffer's
    descriptor — in a worker, the one it inherited from the creator —
    and takes ownership of it.  Each side releases its descriptor and
    mapping on :meth:`close`.
    """

    def __init__(self, fd: int):
        self._fd = fd
        self._map = mmap.mmap(fd, 0)
        self._view = memoryview(self._map)
        self._closed = False
        self.capacity = len(self._map) - _PENDING.size
        # Freeing a block above glibc's mmap threshold raises it to that
        # size (the heap trim threshold to twice it): one untouched (calloc)
        # block keeps each round's message copies on a heap never re-faulted.
        bytes(2 * len(self._map))

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "RingBuffer":
        if capacity < 1:
            raise ConfigError("ring capacity must be >= 1 byte")
        fd = os.memfd_create("repro-ring") if hasattr(os, "memfd_create") \
            else os.dup(tempfile.TemporaryFile().fileno())
        os.ftruncate(fd, _PENDING.size + capacity)   # reads as zeros
        return cls(fd)

    def fileno(self) -> int:
        """The descriptor a child process inherits to map this buffer."""
        return self._fd

    def used(self) -> int:
        """Length of the unread message (0 when empty)."""
        if self._closed:
            raise RingError("ring is closed")
        return _PENDING.unpack_from(self._view, 0)[0]

    def write(self, data) -> bool:
        """Place one message at offset 0; ``False`` when it does not fit
        or the previous message is still unread — the caller's cue to
        fall back to the pipe.  Only ever called by the producing side."""
        count = len(data)
        if self.used() or count > self.capacity:
            return False
        self._view[_PENDING.size:_PENDING.size + count] = data
        # Publish last: the consumer only learns of the message via the
        # pipe doorbell, which happens-after this store.
        _PENDING.pack_into(self._view, 0, count)
        return True

    def read(self, count: int) -> bytearray:
        """Consume the unread message, which the doorbell said holds
        exactly ``count`` bytes, into a fresh writable buffer.  Only ever
        called by the consuming side."""
        pending = self.used()
        if count != pending:
            raise RingError(
                f"ring holds {pending} unread byte(s); asked for {count} "
                f"— producer and consumer are desynchronized")
        out = bytearray(self._view[_PENDING.size:_PENDING.size + count])
        _PENDING.pack_into(self._view, 0, 0)
        return out

    def close(self) -> None:
        """Unmap this side's view and close its descriptor (idempotent);
        the memory is freed once every side has closed."""
        if self._closed:
            return
        self._closed = True
        self._view.release()
        self._map.close()
        os.close(self._fd)

    def unlink(self) -> None:
        """No-op: an anonymous buffer has no name to remove."""

    def __enter__(self) -> "RingBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------
# Message framing: pickle-5 with out-of-band buffers
# ---------------------------------------------------------------------
def dumps_message(obj) -> bytes:
    """Serialize one message to a self-describing byte blob.

    Out-of-band pickle-5 buffers (numpy array payloads, chiefly) are
    carried as raw segments after the pickle stream — no bytes->opcode
    round-trip for the window data itself.
    """
    buffers: list[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    segments = [head, *(buffer.raw() for buffer in buffers)]
    parts = [_MSG_COUNT.pack(len(segments))]
    parts.extend(_MSG_LEN.pack(len(segment)) for segment in segments)
    parts.extend(segments)
    return b"".join(parts)


def loads_message(blob) -> object:
    """Rebuild a message from :func:`dumps_message` bytes.

    Pass a ``bytearray`` (what :meth:`RingBuffer.read` returns) and the
    reconstructed arrays view it writably — no extra copy.
    """
    view = memoryview(blob)
    if len(view) < _MSG_COUNT.size:
        raise RingError(f"message blob of {len(view)} byte(s) is shorter "
                        f"than its segment-count header")
    (count,) = _MSG_COUNT.unpack_from(view, 0)
    offset = _MSG_COUNT.size
    if count < 1 or len(view) < offset + count * _MSG_LEN.size:
        raise RingError(f"message blob claims {count} segment(s) but is "
                        f"only {len(view)} byte(s) long")
    lengths = []
    for _ in range(count):
        (length,) = _MSG_LEN.unpack_from(view, offset)
        offset += _MSG_LEN.size
        lengths.append(length)
    if offset + sum(lengths) != len(view):
        raise RingError(
            f"message blob is {len(view)} byte(s); its segment table "
            f"promises {offset + sum(lengths)}")
    segments = []
    for length in lengths:
        segments.append(view[offset:offset + length])
        offset += length
    try:
        return pickle.loads(segments[0], buffers=segments[1:])
    except Exception as exc:
        raise RingError(f"undecodable ring message: "
                        f"{type(exc).__name__}: {exc}") from None
