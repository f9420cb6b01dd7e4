"""Blocking gateway client SDK and the open-loop load generator.

:class:`GatewayClient` is the synchronous counterpart of the asyncio
server: one TCP connection, one request in flight, typed
:class:`GatewayError` on error frames — the shape an edge device's
uplink code would take.

:class:`LoadGenerator` drives a gateway with many concurrent client
connections.  Streams are split round-robin across clients; each client
replays its streams' pre-materialized arrival windows in stream order
(per-stream request order is what score parity is defined over) and
records per-request latency into a shared
:class:`~repro.metrics.LatencyHistogram`.  With a target
request ``rate`` the generator is open-loop — sends are scheduled on a
global clock regardless of completions, the regime where admission
control starts answering ``backpressure`` — and without one each
connection runs closed-loop at full speed.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..metrics import LatencyHistogram
from .protocol import (
    CODECS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    request_frame,
    send_frame,
)
from ..errors import ConfigError

__all__ = ["GatewayError", "GatewayClient", "LoadGenConfig",
           "LoadGenerator", "LoadGenResult"]


class GatewayError(Exception):
    """An error frame from the gateway; ``code`` is the typed code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class GatewayClient:
    """Blocking request/response client for one gateway connection.

    ``codec`` is a *preference*: the client always opens the
    conversation in JSON (the one codec every peer speaks) at its
    newest protocol version, and upgrades window traffic to binary
    frames only after an ``attach`` response advertises the codec.  A
    v1-only server answers ``version_mismatch`` instead; the client
    transparently re-attaches with ``v = 1`` and stays on JSON — the
    fallback path that keeps old peers working.  ``negotiated_codec``
    reports where negotiation landed.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 codec: str = "binary", tracer=None):
        if codec not in CODECS:
            raise ConfigError(f"codec must be one of {CODECS}, got {codec!r}")
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.max_frame_bytes = max_frame_bytes
        self.preferred_codec = codec
        #: Optional :class:`repro.obs.TraceRecorder`; when set, window
        #: ops record ``client.request`` spans whose context rides the
        #: request's ``trace`` field (an ordinary optional frame field,
        #: so untraced and v1 peers are unaffected).
        self.tracer = tracer
        #: Protocol version spoken on this connection; drops to 1 after
        #: a ``version_mismatch`` from a v1-only peer.
        self.protocol_version = PROTOCOL_VERSION if codec == "binary" else 1
        #: Wire codec for window traffic; "json" until negotiated up.
        self.negotiated_codec = "json"
        self._next_id = 0
        self._closed = False

    # -- plumbing ------------------------------------------------------
    def request(self, op: str, codec: str | None = None, **fields) -> dict:
        """Send one request and wait for its response frame; raises
        :class:`GatewayError` on an error frame, :class:`FrameError` /
        :class:`ConnectionError` on transport problems.  ``codec``
        overrides the negotiated wire codec for this one frame."""
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = self._next_id
        self._next_id += 1
        send_frame(self._sock,
                   request_frame(op, request_id,
                                 version=self.protocol_version, **fields),
                   codec=codec or self.negotiated_codec,
                   max_bytes=self.max_frame_bytes)
        reply = recv_frame(self._sock, self.max_frame_bytes)
        if reply is None:
            raise ConnectionError("gateway closed the connection")
        if reply.get("ok"):
            return reply
        error = reply.get("error") or {}
        raise GatewayError(error.get("code", "internal"),
                           error.get("message", "unspecified gateway error"))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wire_windows(self, windows) -> object:
        """Windows as this connection's codec spells them: an ndarray
        rides a binary frame as its raw float64 buffer; JSON gets nested
        lists.  Either way the server decodes the identical values."""
        array = np.asarray(windows, dtype=np.float64)
        return array if self.negotiated_codec == "binary" else array.tolist()

    def _traced_request(self, op: str, stream: str, **fields) -> dict:
        """One window op, wrapped in a ``client.request`` span when a
        tracer is attached; the span's context is stamped on the frame
        so the server's ``gateway.request`` span joins this trace."""
        if self.tracer is None:
            return self.request(op, stream=stream, **fields)
        span = self.tracer.start(
            "client.request",
            attrs={"op": op, "stream": stream,
                   "codec": self.negotiated_codec})
        try:
            reply = self.request(op, stream=stream,
                                 trace=dict(span.context.to_wire()),
                                 **fields)
        except GatewayError as exc:
            span.finish(outcome=exc.code)
            raise
        except Exception:
            span.finish(outcome="error")
            raise
        span.finish(outcome="ok")
        return reply

    # -- ops -----------------------------------------------------------
    def attach(self, stream: str) -> dict:
        """Attach to a stream — and negotiate the wire codec.

        The attach itself always goes as JSON: it must be readable by a
        peer that has never heard of binary frames.  A v2 response
        advertising ``codecs`` upgrades this connection's window traffic
        to the preferred codec; a ``version_mismatch`` from a v1-only
        peer triggers one silent re-attach at ``v = 1``.
        """
        try:
            reply = self.request("attach", stream=stream, codec="json")
        except GatewayError as exc:
            if exc.code != "version_mismatch" or self.protocol_version <= 1:
                raise
            self.protocol_version = 1
            self.negotiated_codec = "json"
            reply = self.request("attach", stream=stream, codec="json")
        advertised = reply.get("codecs") or ["json"]
        if self.preferred_codec == "binary" and "binary" in advertised \
                and self.protocol_version >= 2:
            self.negotiated_codec = "binary"
        return reply

    def detach(self, stream: str) -> dict:
        return self.request("detach", stream=stream)

    def ingest(self, stream: str, windows) -> dict:
        """Submit one arrival batch; the reply's ``"scores"`` (nested
        list over JSON, raw float64 ndarray over binary) is normalized
        to an array under ``"scores_array"``."""
        reply = self._traced_request("ingest", stream,
                                     windows=self._wire_windows(windows))
        reply["scores_array"] = np.asarray(reply["scores"], dtype=np.float64)
        return reply

    def scores(self, stream: str, windows) -> np.ndarray:
        """Score windows without feeding the stream's monitor."""
        reply = self._traced_request("scores", stream,
                                     windows=self._wire_windows(windows))
        return np.asarray(reply["scores"], dtype=np.float64)

    def stats(self) -> dict:
        return self.request("stats")

    def shutdown(self) -> dict:
        """Ask the server to drain and stop."""
        return self.request("shutdown")


# ---------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------
@dataclass
class LoadGenConfig:
    """Shape of one load-generator run against one gateway."""

    clients: int = 2
    rounds: int = 6                   # requests per stream
    rate: float | None = None         # total requests/sec; None = closed-loop
    timeout: float = 120.0
    max_samples: int = 65536
    codec: str = "binary"             # preferred wire codec (negotiated)


@dataclass
class LoadGenResult:
    """Aggregate of one run: latency histogram, scores, and errors."""

    requests: int = 0
    windows: int = 0
    elapsed: float = 0.0
    rejected: int = 0                 # backpressure rejections
    errors: list[str] = field(default_factory=list)
    latency: LatencyHistogram | None = None
    # scores[stream] -> [(round_index, np.ndarray), ...] for parity
    # checking; rejected rounds are simply absent.
    scores: dict[str, list] = field(default_factory=dict)

    def summary(self, phase: str = "loadgen") -> dict:
        out = {
            "requests": self.requests,
            "windows": self.windows,
            "elapsed_seconds": self.elapsed,
            "requests_per_sec": self.requests / max(self.elapsed, 1e-9),
            "windows_per_sec": self.windows / max(self.elapsed, 1e-9),
            "rejected": self.rejected,
            "errors": len(self.errors),
        }
        if self.latency is not None and self.latency.count:
            out["latency"] = self.latency.summary(phase=phase)
        return out


class LoadGenerator:
    """Drive one gateway with ``clients`` concurrent connections.

    ``stream_windows`` maps stream names to their per-round arrival
    batches; every client owns a disjoint round-robin slice of the
    streams and sends each stream's rounds strictly in order, so the
    gateway sees the exact per-stream window sequence a direct
    ``fleet.step()`` run would.
    """

    def __init__(self, address: tuple[str, int],
                 stream_windows: dict[str, list[np.ndarray]],
                 config: LoadGenConfig | None = None, tracer=None):
        if not stream_windows:
            raise ConfigError("need at least one stream to drive")
        self.address = address
        self.stream_windows = stream_windows
        self.config = config or LoadGenConfig()
        if self.config.clients < 1:
            raise ConfigError("need at least one client")
        #: Shared :class:`repro.obs.TraceRecorder` handed to every
        #: client connection (the recorder's lock makes one instance
        #: safe across the client threads).
        self.tracer = tracer

    def run(self) -> LoadGenResult:
        cfg = self.config
        names = list(self.stream_windows)
        assignments = [names[i::cfg.clients] for i in range(cfg.clients)]
        assignments = [a for a in assignments if a]
        result = LoadGenResult(latency=LatencyHistogram(cfg.max_samples))
        start = time.perf_counter()
        # Open-loop pacing: request k (globally, across clients) is due
        # at start + k/rate.  Each client's requests are its slice of
        # that schedule, so the offered load hits the target rate
        # without any cross-thread coordination.
        interval = None if cfg.rate is None else 1.0 / cfg.rate
        # Each client fills its own LoadGenResult (own histogram); only
        # finished clients are merged, so a straggler past the join
        # timeout can never mutate the returned aggregate mid-read.
        parts = [LoadGenResult(latency=LatencyHistogram(cfg.max_samples))
                 for _ in assignments]
        threads = [threading.Thread(
            target=self._client_main,
            args=(index, streams, start, interval, len(assignments),
                  parts[index]),
            name=f"loadgen-{index}", daemon=True)
            for index, streams in enumerate(assignments)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + cfg.timeout
        for index, thread in enumerate(threads):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                result.errors.append(
                    f"client {index}: still running after the "
                    f"{cfg.timeout}s timeout; its results are discarded")
                continue
            part = parts[index]
            result.requests += part.requests
            result.windows += part.windows
            result.rejected += part.rejected
            result.errors.extend(part.errors)
            # merge(), not observe() over the reservoir: the aggregate
            # must report the true observation count, and re-observing
            # samples would cap "count" at the reservoir size.
            result.latency.merge(part.latency)
            for stream, served in part.scores.items():
                result.scores.setdefault(stream, []).extend(served)
        for served in result.scores.values():
            served.sort(key=lambda pair: pair[0])
        result.elapsed = time.perf_counter() - start
        return result

    def _client_main(self, index: int, streams: list[str], start: float,
                     interval: float | None, client_count: int,
                     part: LoadGenResult) -> None:
        cfg = self.config
        try:
            client = GatewayClient(*self.address, timeout=cfg.timeout,
                                   codec=cfg.codec, tracer=self.tracer)
        except OSError as exc:
            part.errors.append(f"client {index}: connect: {exc}")
            return
        sent = 0
        try:
            for stream in streams:
                client.attach(stream)
            for round_index in range(cfg.rounds):
                for stream in streams:
                    rounds = self.stream_windows[stream]
                    if round_index >= len(rounds):
                        continue
                    if interval is not None:
                        due = start + (sent * client_count + index) * interval
                        now = time.perf_counter()
                        if due > now:
                            time.sleep(due - now)
                    windows = rounds[round_index]
                    t0 = time.perf_counter()
                    try:
                        reply = client.ingest(stream, windows)
                    except GatewayError as exc:
                        if exc.code == "backpressure":
                            part.rejected += 1
                        else:
                            part.errors.append(
                                f"client {index}: {stream}"
                                f"[{round_index}]: {exc}")
                        sent += 1
                        continue
                    latency = time.perf_counter() - t0
                    sent += 1
                    part.requests += 1
                    part.windows += int(np.asarray(windows).shape[0])
                    part.latency.observe(latency)
                    part.scores.setdefault(stream, []).append(
                        (round_index, reply["scores_array"]))
        except (ConnectionError, FrameError, GatewayError, OSError) as exc:
            part.errors.append(f"client {index}: {exc}")
        finally:
            client.close()
