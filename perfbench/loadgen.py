"""The load generator: one process, one thread, a few connections.

Streams are multiplexed over at most ``nproc`` connections and matched
to their replies by request ``id`` (the server runs one task per request
and echoes ids), so a round can hold one request from *every* stream —
``GatewayClient`` allows one request in flight per connection and could
never form a round larger than the connection count.  Frames are built
and parsed with the public ``repro.gateway.protocol`` helpers; the
sockets stay blocking (a reply is small and arrives whole) and
``selectors`` only says which one has a reply waiting.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from repro.gateway.protocol import recv_frame, request_frame, send_frame


class LoadError(RuntimeError):
    """The server stopped answering (timeout or closed connection)."""


@dataclass
class Reply:
    """One answered (or refused) request, as the client saw it."""

    stream: int
    index: int                 # the request's position in its stream
    latency: float             # seconds, send (or due time) -> reply
    received: float            # perf_counter() when the reply arrived
    ok: bool
    scores: np.ndarray | None = None
    step: int = -1
    adapted: bool = False
    pruned: int = 0
    error: str = ""


@dataclass
class PhaseResult:
    replies: list[Reply] = field(default_factory=list)
    wall: float = 0.0          # measured interval, seconds
    measured: int = 0          # requests inside the measured interval
    lateness: list[float] = field(default_factory=list)  # paced: send - due

    @property
    def attempted(self) -> int:
        return len(self.replies)

    @property
    def failed(self) -> int:
        return sum(1 for reply in self.replies if not _good(reply))


def _good(reply: Reply) -> bool:
    return (reply.ok and reply.scores is not None
            and bool(np.all(np.isfinite(reply.scores))))


class MuxClient:
    """Multiplexes ``stream_names`` over ``connections`` sockets.

    ``windows(stream, index)`` supplies request ``index`` of stream number
    ``stream``; every stream's requests are sent in index order, continuing
    across phases, so the server sees one FIFO sequence per stream.
    """

    def __init__(self, address, stream_names: list[str], windows,
                 connections: int = 2, timeout_s: float = 60.0):
        self.names = list(stream_names)
        self.windows = windows
        self.timeout_s = timeout_s
        self.next_index = [0] * len(self.names)
        self._next_id = 0
        self._inflight: dict[int, tuple[int, int, float]] = {}
        self._selector = selectors.DefaultSelector()
        self._socks = []
        for _ in range(max(1, min(connections, len(self.names)))):
            sock = socket.create_connection(address, timeout=timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._socks.append(sock)
            self._selector.register(sock, selectors.EVENT_READ)

    # -- plumbing ------------------------------------------------------
    def _sock(self, stream: int) -> socket.socket:
        return self._socks[stream % len(self._socks)]

    def _request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, sock: socket.socket, op: str, **fields) -> dict:
        """One control request (attach, stats, shutdown) and its reply;
        only valid while no window request is in flight."""
        send_frame(sock, request_frame(op, self._request_id(), **fields))
        reply = recv_frame(sock)
        if reply is None or not reply.get("ok"):
            raise LoadError(f"{op} failed: {reply!r}")
        return reply

    def attach_all(self) -> None:
        for stream, name in enumerate(self.names):
            self.call(self._sock(stream), "attach", stream=name)

    def stats(self) -> dict:
        return self.call(self._socks[0], "stats")

    def shutdown(self) -> None:
        self.call(self._socks[0], "shutdown")

    def close(self) -> None:
        self._selector.close()
        for sock in self._socks:
            sock.close()

    def __enter__(self) -> "MuxClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, stream: int, started: float | None = None) -> None:
        """Send the stream's next ingest; the latency clock starts at
        ``started`` (a due time) or right before the send."""
        index = self.next_index[stream]
        self.next_index[stream] = index + 1
        request_id = self._request_id()
        frame = request_frame("ingest", request_id, stream=self.names[stream],
                              windows=self.windows(stream, index))
        self._inflight[request_id] = (
            stream, index, time.perf_counter() if started is None else started)
        send_frame(self._sock(stream), frame, codec="binary")

    def _receive(self, timeout: float) -> list[Reply]:
        """Replies that are ready within ``timeout`` seconds (maybe none)."""
        replies = []
        for key, _events in self._selector.select(timeout):
            payload = recv_frame(key.fileobj)
            received = time.perf_counter()
            if payload is None:
                raise LoadError("server closed the connection")
            entry = self._inflight.pop(payload.get("id"), None)
            if entry is None:
                raise LoadError(f"reply to unknown request id "
                                f"{payload.get('id')!r}")
            stream, index, started = entry
            if payload.get("ok"):
                replies.append(Reply(
                    stream, index, received - started, received, True,
                    scores=np.asarray(payload["scores"], dtype=np.float64),
                    step=int(payload["step"]),
                    adapted=bool(payload["adapted"]),
                    pruned=int(payload["pruned"])))
            else:
                error = payload.get("error") or {}
                replies.append(Reply(stream, index, received - started,
                                     received, False,
                                     error=str(error.get("code"))))
        return replies

    def _receive_some(self) -> list[Reply]:
        replies = self._receive(self.timeout_s)
        if not replies:
            raise LoadError(f"no reply within {self.timeout_s:.0f} s with "
                            f"{len(self._inflight)} request(s) in flight")
        return replies

    # -- phases --------------------------------------------------------
    def solo(self, requests: int) -> PhaseResult:
        """One request in flight at a time, round-robin over the streams."""
        result = PhaseResult(measured=requests)
        started = time.perf_counter()
        for count in range(requests):
            self._send(count % len(self.names))
            result.replies.extend(self._receive_some())
        result.wall = time.perf_counter() - started
        return result

    def closed_loop(self, warm: int, measured: int, cool: int = 0,
                    on_boundary=None) -> PhaseResult:
        """Every stream keeps exactly one request in flight for ``warm`` +
        ``measured`` + ``cool`` requests.

        Streams drift apart (a stream that lands in a small round is acked
        sooner and cycles faster), so the measured interval is counted in
        replies, not per stream: it runs from reply number ``streams x
        warm`` for ``streams x measured`` replies.  The cool-down keeps
        every stream busy until it ends; without it the fastest streams
        finish early and the tail runs at reduced concurrency.
        ``on_boundary`` is called at both ends of the interval."""
        streams = len(self.names)
        total = warm + measured + cool
        boundaries = (streams * warm, streams * (warm + measured))
        sent = [1] * streams
        result = PhaseResult(measured=streams * measured)
        marks: list[float] = []

        def boundary() -> None:
            if on_boundary is not None:
                on_boundary()
            marks.append(time.perf_counter())

        if warm == 0:
            boundary()
        for stream in range(streams):
            self._send(stream)
        outstanding = streams
        while outstanding:
            for reply in self._receive_some():
                result.replies.append(reply)
                if len(result.replies) in boundaries:
                    boundary()
                if sent[reply.stream] < total:
                    sent[reply.stream] += 1
                    self._send(reply.stream)
                else:
                    outstanding -= 1
        result.wall = marks[1] - marks[0]
        return result

    def paced(self, rate: float, requests: int) -> PhaseResult:
        """Open loop: ``requests`` sends on a fixed schedule of ``rate``
        per second, round-robin over the streams, each timed from when it
        was *due*; ``lateness`` records how far behind its schedule the
        generator sent."""
        result = PhaseResult(measured=requests)
        origin = time.perf_counter()
        sent = 0
        while len(result.replies) < requests:
            now = time.perf_counter()
            while sent < requests and origin + sent / rate <= now:
                due = origin + sent / rate
                self._send(sent % len(self.names), started=due)
                result.lateness.append(time.perf_counter() - due)
                sent += 1
                now = time.perf_counter()
            if sent < requests:
                wait = max(origin + sent / rate - now, 0.0)
                result.replies.extend(self._receive(wait))
            else:
                result.replies.extend(self._receive_some())
        result.wall = time.perf_counter() - origin
        return result
