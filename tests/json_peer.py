"""A gateway peer that speaks JSON frames, for the tests' codec legs.

:class:`~repro.gateway.GatewayClient` sends every frame as binary; the
server still reads JSON frames and answers each in the codec it came in
(perfbench's load generator sends its control frames that way).
:class:`JsonPeer` drives that leg with raw ``send_frame`` calls at
protocol v2, with the client's method names so a test can swap one for
the other.
"""

import socket

import numpy as np

from repro.gateway import GatewayError
from repro.gateway.protocol import recv_frame, request_frame, send_frame


class JsonPeer:
    """One connection, one request in flight; JSON frames unless a
    request asks for ``codec="binary"``."""

    def __init__(self, address, tracer=None, timeout: float = 60.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.tracer = tracer
        self._next_id = 0

    def request(self, op: str, codec: str = "json", **fields) -> dict:
        """Send one frame and return its reply, error frames included."""
        self._next_id += 1
        send_frame(self.sock, request_frame(op, self._next_id, **fields),
                   codec=codec)
        reply = recv_frame(self.sock)
        if reply is None:
            raise ConnectionError("gateway closed the connection")
        return reply

    def call(self, op: str, **fields) -> dict:
        """:meth:`request`, raising :class:`GatewayError` on an error."""
        reply = self.request(op, **fields)
        if not reply.get("ok"):
            error = reply["error"]
            raise GatewayError(error["code"], error["message"])
        return reply

    def _windows_op(self, op: str, stream: str, windows) -> dict:
        fields = {"stream": stream, "windows": np.asarray(windows).tolist()}
        if self.tracer is None:
            return self.call(op, **fields)
        span = self.tracer.start("client.request",
                                 attrs={"op": op, "stream": stream})
        try:
            reply = self.call(op, trace=dict(span.context.to_wire()),
                              **fields)
        except GatewayError as exc:
            span.finish(outcome=exc.code)
            raise
        span.finish(outcome="ok")
        return reply

    def attach(self, stream: str) -> dict:
        return self.call("attach", stream=stream)

    def ingest(self, stream: str, windows) -> dict:
        reply = self._windows_op("ingest", stream, windows)
        reply["scores_array"] = np.asarray(reply["scores"], dtype=np.float64)
        return reply

    def scores(self, stream: str, windows) -> np.ndarray:
        reply = self._windows_op("scores", stream, windows)
        return np.asarray(reply["scores"], dtype=np.float64)

    def stats(self) -> dict:
        return self.call("stats")

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "JsonPeer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
