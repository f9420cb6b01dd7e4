"""The asyncio TCP gateway: a serving engine behind a network socket.

:class:`GatewayServer` accepts length-prefixed JSON frames (see
:mod:`repro.gateway.protocol`) and submits each connection's ``ingest``
/ ``scores`` requests into its fleet's
:class:`~repro.runtime.ServingEngine` — the same engine that drives
``fleet.step()`` — whose bounded per-stream admission queues and
pluggable :class:`~repro.runtime.SchedulingPolicy` replace the old
hardcoded ≤1-request-per-stream-per-round pop loop.  A single gateway
loop asks the engine to run policy-composed rounds in a one-worker
executor thread; because scoring is batch-composition-independent and
the engine preserves per-stream FIFO no matter the policy, gateway-served
scores are bit-identical to a direct in-process ``fleet.step()`` run over
the same per-stream window sequence, no matter how clients interleave.

Natural batching, no added latency: while one round is scoring in the
executor, newly arriving windows pile up in the engine's queues and form
the next round; an idle gateway serves a lone request immediately.
Admission control rejects work beyond ``max_queue_depth`` queued requests
per stream with a typed ``backpressure`` frame instead of buffering
without bound; requests may carry ``priority``/``deadline_ms`` fields for
the priority policy (a missed deadline answers a typed ``expired``
frame); and ``shutdown`` drains every queued request before the server
closes.

Durable serving: constructed with ``wal_dir``, the gateway attaches a
:class:`~repro.wal.WalDurability` hook to the engine — every accepted
ingest is logged before it becomes schedulable and fsynced (group
commit, one per round) before its response future resolves, so an acked
ingest survives a SIGKILL and ``repro recover <wal_dir>`` rebuilds the
fleet bit-identically.  By default rounds are *pipelined*: the engine's
committer thread fsyncs round N while the round loop computes round
N+1, and acks resolve from the committer once their covering fsync
returns — same ack-after-fsync guarantee, shorter critical path
(``pipeline=False`` restores the serial loop).

The server fronts a :class:`~repro.serving.DeploymentFleet` or a
:class:`~repro.serving.ShardedFleet` interchangeably — both are facades
over the engine, so the gateway never branches on fleet type.
:func:`serve_in_thread` runs the event loop in a daemon thread for
blocking callers — tests and examples driving a server in the same
process.

Event-loop hygiene is machine-checked: no ``async def`` in this package
may call blocking work (fsync, sleeps, socket dials, subprocesses, or
engine/fleet round methods) directly — it must route through
``loop.run_in_executor`` — enforced by ``repro lint``'s
**async-blocking** rule in CI.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, StateError
from ..metrics import MetricsRegistry
from ..obs import TraceContext, TraceRecorder, write_chrome_trace, write_jsonl
from ..runtime import AdmissionError, EngineRequest, resolve_policy
from .protocol import (
    CODECS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameError,
    RequestError,
    error_frame,
    frame_codec,
    ok_frame,
    read_frame,
    validate_request,
    write_frame,
)

__all__ = ["GatewayServer", "GatewayHandle", "serve_in_thread",
           "DEFAULT_MAX_QUEUE_DEPTH"]

#: Queued-but-unserved requests allowed per stream before admission
#: control answers ``backpressure``.  One round of headroom per stream
#: is plenty for closed-loop clients; open-loop load beyond the fleet's
#: throughput is the case the bound exists for.
DEFAULT_MAX_QUEUE_DEPTH = 8


@dataclass
class _Pending:
    """Gateway-side handle riding along an :class:`EngineRequest` tag."""

    future: asyncio.Future
    owner: object                 # the connection, for disconnect cleanup


@dataclass(eq=False)  # identity semantics: connections live in a set
class _Connection:
    writer: asyncio.StreamWriter
    attached: set = field(default_factory=set)
    # Serializes writer.drain() across this connection's response tasks:
    # write() buffers atomically, but concurrent drain() waiters on one
    # flow-control-paused transport are not supported by asyncio.
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class GatewayServer:
    """Serve a fleet's streams over TCP with admission control."""

    def __init__(self, fleet, host: str = "127.0.0.1", port: int = 0,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 metrics: MetricsRegistry | None = None,
                 policy=None, wal_dir=None, wal_config=None,
                 snapshot_policy=None, codec: str = "binary",
                 tracer=None, trace_dir=None,
                 slow_round_ms: float | None = None,
                 pipeline: bool = True):
        if max_queue_depth < 1:
            raise ConfigError("max_queue_depth must be >= 1")
        if codec not in CODECS:
            raise ConfigError(f"codec must be one of {CODECS}, got {codec!r}")
        # codec="binary": speak protocol v1 and v2, advertise both codecs
        # in attach responses, answer each request in the codec it
        # arrived in.  codec="json": behave as a legacy v1-only peer —
        # v2 requests get version_mismatch and binary frames get
        # bad_frame — which is exactly what clients negotiate against.
        self.codec = codec
        self.supported_versions = SUPPORTED_VERSIONS if codec == "binary" \
            else (1,)
        self.codecs = ("json", "binary") if codec == "binary" else ("json",)
        engine = getattr(fleet, "engine", None)
        if engine is None:
            raise TypeError(
                f"{type(fleet).__name__} exposes no serving engine; the "
                "gateway fronts DeploymentFleet/ShardedFleet facades over "
                "repro.runtime.ServingEngine")
        self.fleet = fleet
        self.engine = engine
        self.engine.max_queue_depth = max_queue_depth
        if policy is not None:
            self.engine.policy = resolve_policy(policy)
        if metrics is not None:
            # One registry for everything: the caller's registry replaces
            # the engine's so engine.* and gateway.* metrics land together.
            self.engine.metrics = metrics
        self.metrics = self.engine.metrics
        # Tracing: with a trace_dir (or slow_round_ms) and no explicit
        # tracer, the gateway owns a recorder and exports it at drain;
        # an explicit tracer may be shared (``LoadGenerator`` records
        # client and server spans into one recorder).  Every server-side
        # span call site guards on ``self.tracer is not None``, so an
        # untraced gateway's hot path is unchanged.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if tracer is None and (self.trace_dir is not None
                               or slow_round_ms is not None):
            tracer = TraceRecorder()
        self.tracer = tracer
        if tracer is not None:
            self.engine.tracer = tracer
            if slow_round_ms is not None:
                self.engine.slow_round_ms = float(slow_round_ms)
                if self.trace_dir is not None:
                    self.engine.on_slow_round = self._dump_slow_round
        # Durable serving: with a wal_dir every accepted ingest is
        # appended to a write-ahead log before it becomes schedulable,
        # and the engine group-commit fsyncs at the end of each round
        # *before* any response future resolves — so an acked ingest is
        # always on disk (ack-after-append), recoverable with
        # ``repro recover <wal_dir>`` after a crash.
        self.durability = None
        if wal_dir is not None:
            from ..wal import WalDurability
            self.durability = WalDurability(
                fleet, wal_dir, config=wal_config, policy=snapshot_policy,
                metrics=self.metrics, tracer=self.tracer)
            self.engine.durability = self.durability
        # Pipelined rounds (default): run_round hands each round's
        # results to the engine's committer thread and immediately
        # schedules the next round, overlapping round N's group-commit
        # fsync with round N+1's compute.  The committer delivers the
        # results through _on_batch_committed once their fsync returns,
        # so acks are still strictly after the fsync that covers them —
        # --no-pipeline restores the fully serial round loop.
        self.pipeline = bool(pipeline)
        self.engine.pipeline = self.pipeline
        self.engine.on_commit = self._on_batch_committed if self.pipeline \
            else None
        self._loop: asyncio.AbstractEventLoop | None = None
        # Size of the most recent committed ack burst — the round-gather
        # window's estimate of how many closed-loop clients just
        # unblocked (see _gather_arrivals).
        self._ack_burst = 1
        self.host = host
        self.port = port
        self.max_queue_depth = max_queue_depth
        self.max_frame_bytes = max_frame_bytes
        self.address: tuple[str, int] | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._server: asyncio.AbstractServer | None = None
        self._round_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        # Created in start() so they bind to the serving loop.
        self._work: asyncio.Event | None = None
        self._paused: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        for op in ("ingest", "scores", "attach", "detach", "stats",
                   "shutdown"):
            self.metrics.counter(f"gateway.requests.{op}")
        for wire_codec in CODECS:
            self.metrics.counter(f"gateway.frames.{wire_codec}")
        self.metrics.counter("gateway.rejected.backpressure")
        self.metrics.counter("gateway.errors")
        self.metrics.counter("gateway.rounds")
        self.metrics.counter("gateway.connections")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (with ``port=0`` the OS picks a free ephemeral port)."""
        if self._server is not None:
            raise StateError("server already started")
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._paused = asyncio.Event()
        self._paused.set()
        self._idle = asyncio.Event()
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-round")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        self._round_task = asyncio.ensure_future(self._round_loop())
        return self.address

    async def wait_stopped(self) -> None:
        """Block until a drain triggered by ``shutdown`` has finished."""
        await self._stopped.wait()

    async def serve(self) -> tuple[str, int]:
        """``start()`` then run until a ``shutdown`` request drains the
        server; returns the address it served on."""
        address = await self.start()
        try:
            await self.wait_stopped()
        finally:
            if not self._stopped.is_set():
                await self.shutdown()
        return address

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting work, serve every already
        queued request, then close the listener and all connections."""
        if self._server is None:
            raise StateError("server was never started")
        if self._drain_task is None:
            self._draining = True
            self._drain_task = asyncio.ensure_future(self._drain_and_stop())
        await self._stopped.wait()

    async def _drain_and_stop(self) -> None:
        self._draining = True
        self._paused.set()      # a paused server must still drain
        self._work.set()        # wake the round loop so it can notice
        await self._idle.wait()
        loop = asyncio.get_running_loop()
        if self.pipeline:
            # Committer barrier: every handed-off batch fsyncs and
            # delivers before connections close, so the last round's
            # acks are written, not dropped.  Joining a thread blocks,
            # hence the executor; the yield after lets the response
            # tasks the delivered results woke buffer their frames.
            await loop.run_in_executor(None, self.engine.stop_committer)
            await asyncio.sleep(0)
        self._server.close()
        await self._server.wait_closed()
        for conn in list(self._connections):
            conn.writer.close()
        self._executor.shutdown(wait=True)
        if self.durability is not None:
            # After the executor is done: no round is running, so the
            # parting snapshot sees quiescent fleet state.  The close
            # snapshots + fsyncs, so it runs off-loop — the round
            # executor is already shut down, hence the default pool.
            await loop.run_in_executor(None, self.durability.close,
                                       self.engine)
        if self.tracer is not None and self.trace_dir is not None:
            # File I/O: off-loop, like the durability close above.
            await loop.run_in_executor(None, self._export_traces)
        self._stopped.set()

    def _export_traces(self) -> None:
        """Write every recorded span to ``trace_dir`` (JSONL + Chrome)."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        spans = self.tracer.snapshot()
        write_jsonl(spans, self.trace_dir / "trace.jsonl")
        write_chrome_trace(spans, self.trace_dir / "trace_chrome.json")

    def _dump_slow_round(self, spans) -> None:
        """Slow-round hook: dump the offending round's full span tree.

        Called by the engine on the thread that committed the round (the
        committer, or the round executor when serial) — never the event
        loop — so synchronous file I/O is fine here."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        # Named by the round the spans belong to, not engine.rounds: the
        # engine may already be computing the next round.
        index = next((span.attrs["round"] for span in spans
                      if span.name == "engine.round"), self.engine.rounds)
        write_jsonl(spans, self.trace_dir / f"slow-round-{index}.jsonl")

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    async def _round_loop(self) -> None:
        """Drive the engine: whenever work is queued, run one
        policy-composed round in the executor thread and resolve the
        finished requests' futures.

        The round itself — scheduling, waves, score-then-ingest with
        per-entry error isolation — lives in
        :meth:`repro.runtime.ServingEngine.run_round`, which is total:
        every selected or expired request comes back as exactly one
        :class:`~repro.runtime.RoundResult`, so no client is ever left
        hanging.

        Pipelined mode: ``run_round`` returns ``[]`` (results arrive via
        the committer's :meth:`_on_batch_committed` once their group
        commit fsyncs), so only the serial path resolves anything here —
        the next round starts without waiting for the previous round's
        fsync.
        """
        loop = asyncio.get_running_loop()
        while True:
            if self._draining and not self.engine.has_pending():
                self._idle.set()
                return
            await self._work.wait()
            self._work.clear()
            await self._paused.wait()
            if not self.engine.has_pending():
                continue
            if self.pipeline:
                await self._gather_arrivals(loop)
            try:
                results = await loop.run_in_executor(
                    self._executor, self.engine.run_round)
            except Exception:  # noqa: BLE001 — belt over run_round's
                # totality guarantee: whatever slips through must not
                # kill the round loop and hang every connected client.
                self.metrics.counter("gateway.errors").inc()
                self._work.set()
                continue
            if self.engine.has_pending():
                self._work.set()  # leftovers form the next round
            self._resolve_results(results)

    async def _gather_arrivals(self, loop) -> None:
        """Pipelined mode's round-gather window.

        A committed batch acks several closed-loop clients at once, but
        their next requests arrive staggered by thread scheduling;
        starting a round on the very first arrival would fragment what
        serial mode serves as one coalesced round (serial mode's inline
        fsync used to give stragglers time to pile up).  Anticipate the
        burst: the last resolved batch's size bounds how many clients
        just unblocked, so wait — one short beat at a time, bounded —
        until that many requests are pending or arrivals go quiet, and
        stop the instant the expectation is met so a full round starts
        with no trailing delay."""
        pending = self.engine.pending_count()
        expected = self._ack_burst
        if pending >= expected:
            return
        deadline = loop.time() + 0.004
        while loop.time() < deadline:
            await asyncio.sleep(0.0005)
            count = self.engine.pending_count()
            if count >= expected or count <= pending:
                return
            pending = count

    def _on_batch_committed(self, results) -> None:
        """Completion sink for the engine's committer thread (pipelined
        mode): marshal one committed batch onto the event loop to
        resolve its response futures.  The fsync covering these requests
        has already returned (or the batch carries typed ``durability``
        errors), so resolving here preserves ack-after-fsync."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._resolve_results, results)
        except RuntimeError:
            # The loop shut down between the check and the call; the
            # futures' owners are gone with it.
            pass

    def _resolve_results(self, results) -> None:
        if not results:
            return
        self._ack_burst = len(results)
        self.metrics.counter("gateway.rounds").inc()
        for result in results:
            pending = result.request.tag
            if not pending.future.done():
                pending.future.set_result(result)
            # The future now holds the result whose request's tag holds
            # the future: cut the cycle here, after the tag's last reader
            # (``_drop_pending`` only sees still-queued requests), so the
            # request and its windows are freed by refcount.
            result.request.tag = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.metrics.counter("gateway.connections").inc()
        # One task per request so the reader keeps watching the socket
        # while rounds run: a disconnect mid-round is seen immediately
        # and the client's queued work is dropped instead of lingering.
        # Responses carry the request id, and each frame is buffered in
        # one atomic write, so concurrent completions cannot interleave.
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    payload = await read_frame(reader, self.max_frame_bytes)
                    if payload is not None \
                            and frame_codec(payload) == "binary" \
                            and "binary" not in self.codecs:
                        # A v1-only peer does not even understand binary
                        # framing; refuse at the framing layer, exactly
                        # as a genuinely old server would.
                        raise FrameError(
                            "this server speaks protocol v1 (JSON frames "
                            "only); binary frames are not understood")
                except FrameError as exc:
                    # A corrupt stream cannot be re-synchronized: answer
                    # once, then hang up.
                    self.metrics.counter("gateway.errors").inc()
                    with contextlib.suppress(ConnectionError, OSError):
                        async with conn.write_lock:
                            await write_frame(writer, error_frame(
                                None, "bad_frame", str(exc),
                                version=max(self.supported_versions)),
                                max_bytes=self.max_frame_bytes)
                    break
                if payload is None:
                    break
                task = asyncio.ensure_future(self._respond(payload, conn))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            self._connections.discard(conn)
            self._drop_pending(conn)
            for task in list(tasks):
                task.cancel()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _respond(self, payload: dict, conn: _Connection) -> None:
        # Answer in the codec the request arrived in: binary requests get
        # binary responses (scores as raw float64 buffers), JSON requests
        # get JSON — which is what lets mixed-codec clients share one
        # server, or one connection switch codecs frame by frame.
        codec = frame_codec(payload)
        self.metrics.counter(f"gateway.frames.{codec}").inc()
        try:
            reply = await self._dispatch(payload, conn)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — never leave a client hanging
            self.metrics.counter("gateway.errors").inc()
            reply = error_frame(None, "internal",
                                f"{type(exc).__name__}: {exc}",
                                version=max(self.supported_versions))
        with contextlib.suppress(ConnectionError, OSError):
            async with conn.write_lock:
                try:
                    await write_frame(conn.writer, reply, codec=codec,
                                      max_bytes=self.max_frame_bytes)
                except FrameError as exc:
                    # Write-side frame cap: an oversized response must
                    # become a typed error the client can parse, not a
                    # frame it will reject after buffering.
                    self.metrics.counter("gateway.errors").inc()
                    await write_frame(
                        conn.writer,
                        error_frame(reply.get("id"), "bad_frame",
                                    f"response exceeds the frame cap: "
                                    f"{exc}",
                                    version=reply.get(
                                        "v", max(self.supported_versions))),
                        codec=codec, max_bytes=self.max_frame_bytes)

    def _drop_pending(self, conn: _Connection) -> None:
        """Forget a disconnected client's queued-but-unserved requests
        (requests already inside a running round complete; their results
        are simply never sent)."""
        for request in self.engine.drop_pending(
                lambda r: r.tag.owner is conn):
            request.tag.future.cancel()

    async def _dispatch(self, payload: dict, conn: _Connection) -> dict:
        raw_id = payload.get("id")
        echo_id = raw_id if isinstance(raw_id, (int, str)) \
            and not isinstance(raw_id, bool) else None
        # Echo the request's protocol version in the response envelope
        # (a v1 client must not see v2 frames); invalid versions are
        # answered with the server's newest.
        raw_v = payload.get("v")
        echo_v = raw_v if raw_v in self.supported_versions \
            else max(self.supported_versions)
        try:
            op = validate_request(payload, self.supported_versions)
        except RequestError as exc:
            self.metrics.counter("gateway.errors").inc()
            return error_frame(echo_id, exc.code, exc.message,
                               version=echo_v)
        self.metrics.counter(f"gateway.requests.{op}").inc()
        try:
            if op in ("ingest", "scores"):
                return await self._serve_windows(op, payload, conn, echo_id,
                                                 echo_v)
            if op == "attach":
                return self._attach(payload, conn, echo_id, echo_v)
            if op == "detach":
                return self._detach(payload, conn, echo_id, echo_v)
            if op == "stats":
                return self._stats(echo_id, echo_v)
            # shutdown: acknowledge first; the drain task closes the
            # connection once every queued request has been served.
            if self._drain_task is None:
                self._draining = True
                self._drain_task = asyncio.ensure_future(
                    self._drain_and_stop())
            return ok_frame(echo_id, version=echo_v, draining=True)
        except RequestError as exc:
            if exc.code != "backpressure":  # rejections counted separately
                self.metrics.counter("gateway.errors").inc()
            return error_frame(echo_id, exc.code, exc.message,
                               version=echo_v)

    def _stream_of(self, payload: dict) -> str:
        stream = payload.get("stream")
        if not isinstance(stream, str) or not stream:
            raise RequestError("bad_request",
                               "request needs a non-empty 'stream' field")
        return stream

    def _attach(self, payload: dict, conn: _Connection, echo_id,
                echo_v: int) -> dict:
        if self._draining:
            raise RequestError("shutting_down",
                               "server is draining; no new attachments")
        stream = self._stream_of(payload)
        if stream not in self.fleet:
            raise RequestError(
                "unknown_stream",
                f"no stream named {stream!r} attached to the fleet "
                f"(known: {', '.join(sorted(self.fleet.names)) or 'none'})")
        conn.attached.add(stream)
        # The negotiation advertisement: the codecs list tells a v2
        # client it may switch this connection to binary frames.
        return ok_frame(echo_id, version=echo_v, stream=stream,
                        attached=sorted(conn.attached),
                        max_queue_depth=self.max_queue_depth,
                        codecs=list(self.codecs))

    def _detach(self, payload: dict, conn: _Connection, echo_id,
                echo_v: int) -> dict:
        stream = self._stream_of(payload)
        if stream not in conn.attached:
            raise RequestError(
                "not_attached",
                f"this connection is not attached to stream {stream!r}")
        conn.attached.discard(stream)
        return ok_frame(echo_id, version=echo_v, stream=stream,
                        attached=sorted(conn.attached))

    def _stats(self, echo_id, echo_v: int) -> dict:
        engine = self.engine.stats(concurrent=True)
        return ok_frame(
            echo_id, version=echo_v,
            metrics=self.metrics.to_dict(),
            engine=engine,
            # "version" is ok_frame's protocol-version kwarg, so the
            # package version is promoted under its own key.
            server_version=engine["version"],
            uptime_seconds=engine["uptime_seconds"],
            fleet={"type": type(self.fleet).__name__,
                   "streams": list(self.fleet.names),
                   "rounds": self.fleet.rounds},
            queued=self.engine.queued_depths(), draining=self._draining)

    def _scheduling_fields(self, payload: dict) -> tuple[int, float | None]:
        """Optional ``priority``/``deadline_ms`` request fields for the
        priority policy (harmless under fair/greedy scheduling)."""
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise RequestError("bad_request",
                               f"'priority' must be an integer, got "
                               f"{type(priority).__name__}")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            return priority, None
        if isinstance(deadline_ms, bool) \
                or not isinstance(deadline_ms, (int, float)) \
                or deadline_ms <= 0:
            raise RequestError("bad_request",
                               "'deadline_ms' must be a positive number "
                               "of milliseconds")
        # On the engine's scheduling clock, not time.monotonic(): expiry
        # is evaluated against engine.now(), and the two must agree when
        # a non-default clock was injected.
        return priority, self.engine.now() + float(deadline_ms) / 1e3

    async def _serve_windows(self, op: str, payload: dict,
                             conn: _Connection, echo_id,
                             echo_v: int) -> dict:
        # A traced request: the server span joins the client's trace via
        # the optional ``trace`` wire field (absent on v1/untraced peers
        # → a new root), and the engine parents queue-wait/stage spans
        # under the request's context.
        server_span = None
        if self.tracer is not None:
            server_span = self.tracer.start(
                "gateway.request",
                parent=TraceContext.from_wire(payload.get("trace")),
                attrs={"op": op, "stream": str(payload.get("stream")),
                       "codec": frame_codec(payload)})
        outcome = "error"
        try:
            reply = await self._serve_windows_inner(
                op, payload, conn, echo_id, echo_v,
                server_span.context if server_span is not None else None)
            outcome = "ok"
            return reply
        except RequestError as exc:
            outcome = exc.code
            raise
        finally:
            if server_span is not None:
                server_span.finish(outcome=outcome)

    async def _serve_windows_inner(self, op: str, payload: dict,
                                   conn: _Connection, echo_id,
                                   echo_v: int, trace) -> dict:
        started = time.perf_counter()
        # Binary responses carry scores as raw float64 buffers; JSON as
        # nested lists.  Either way the values are bit-identical — JSON
        # float64 round-trips exactly via shortest repr.
        binary_reply = frame_codec(payload) == "binary"
        stream = self._stream_of(payload)
        if self._draining:
            raise RequestError("shutting_down",
                               "server is draining; no new windows accepted")
        if stream not in conn.attached:
            raise RequestError(
                "not_attached",
                f"attach to stream {stream!r} before sending windows")
        if stream not in self.fleet:
            raise RequestError("unknown_stream",
                               f"stream {stream!r} has left the fleet")
        priority, deadline = self._scheduling_fields(payload)
        try:
            windows = np.asarray(payload.get("windows"), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                "bad_request", f"'windows' is not a numeric array: {exc}")
        if windows.ndim != 3 or 0 in windows.shape:
            raise RequestError(
                "bad_request",
                f"expected non-empty (B, T, frame_dim) windows, got shape "
                f"{windows.shape}")
        future = asyncio.get_running_loop().create_future()
        request = EngineRequest(op=op, stream=stream, windows=windows,
                                priority=priority, deadline=deadline,
                                tag=_Pending(future=future, owner=conn),
                                trace=trace)
        try:
            self.engine.submit(request)
        except AdmissionError as exc:
            self.metrics.counter("gateway.rejected.backpressure").inc()
            raise RequestError(exc.code, exc.message)
        self._work.set()
        result = await future
        if result.kind == "error":
            raise RequestError(result.code, result.message)
        self.metrics.histogram(f"gateway.{op}_latency").observe(
            time.perf_counter() - started)
        def _wire_scores(scores) -> object:
            array = np.asarray(scores, dtype=np.float64)
            return array if binary_reply else array.tolist()

        if result.kind == "scores":
            return ok_frame(echo_id, version=echo_v, stream=stream,
                            scores=_wire_scores(result.scores))
        event = result.event
        log = event.log
        return ok_frame(
            echo_id, version=echo_v, stream=stream, step=event.step,
            scores=_wire_scores(event.scores),
            mission=event.mission,
            adapted=bool(log.updated) if log is not None else False,
            pruned=len(log.pruned) if log is not None else 0)


# ---------------------------------------------------------------------
# Blocking-world harness
# ---------------------------------------------------------------------
class GatewayHandle:
    """A gateway event loop running in a daemon thread.

    ``address`` is the bound ``(host, port)``; :meth:`stop` requests a
    graceful drain from any thread and joins the loop.  Usable as a
    context manager.  ``pause_rounds``/``resume_rounds`` freeze the
    round loop (admission keeps queueing) — the hook the failure-path
    tests use to fill queues deterministically.
    """

    def __init__(self, server: GatewayServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.thread = thread
        self.loop = loop

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def _call_soon(self, fn) -> None:
        done = threading.Event()
        self.loop.call_soon_threadsafe(lambda: (fn(), done.set()))
        if not done.wait(timeout=10):
            raise TimeoutError("gateway event loop is not responding")

    def pause_rounds(self) -> None:
        self._call_soon(self.server._paused.clear)

    def resume_rounds(self) -> None:
        self._call_soon(self.server._paused.set)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and stop the server, then join its thread (idempotent —
        a server already stopped by a client ``shutdown`` just joins)."""
        if self.thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self.loop)
            try:
                future.result(timeout=timeout)
            except (asyncio.CancelledError, RuntimeError):
                pass
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "GatewayHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(fleet, **kwargs) -> GatewayHandle:
    """Start a :class:`GatewayServer` over ``fleet`` on a daemon thread;
    returns once the socket is bound.  Keyword arguments go to the
    server constructor (``port=0`` picks an ephemeral port)."""
    server = GatewayServer(fleet, **kwargs)
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        async def main() -> None:
            await server.start()
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.wait_stopped()
        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 — surfaced to caller
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=runner, daemon=True,
                              name="gateway-server")
    thread.start()
    if not started.wait(timeout=60):
        raise TimeoutError("gateway server failed to start in time")
    if "error" in box:
        raise StateError("gateway server failed to start") from box["error"]
    return GatewayHandle(server, thread, box["loop"])
