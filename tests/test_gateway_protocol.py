"""Tests for the gateway wire format: framing, validation, error typing."""

import ast
import asyncio
import socket
import struct
import threading
from pathlib import Path

import pytest

import repro
from repro.gateway import serve_in_thread
from repro.gateway.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    RequestError,
    decode_body,
    encode_frame,
    error_frame,
    ok_frame,
    read_frame,
    recv_frame,
    request_frame,
    send_frame,
    validate_request,
)
from repro.serving import DeploymentFleet


def run(coro):
    return asyncio.run(coro)


async def reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_encode_decode_round_trip(self):
        payload = {"op": "ingest", "id": 7, "windows": [[[0.5, 1.0]]]}
        frame = encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_async_read_round_trip(self):
        async def main():
            payload = request_frame("stats", 3)
            reader = await reader_for(encode_frame(payload))
            assert await read_frame(reader) == payload
            assert await read_frame(reader) is None  # clean EOF

        run(main())

    def test_async_read_multiple_frames(self):
        async def main():
            frames = [request_frame("attach", i, stream=f"cam-{i}")
                      for i in range(3)]
            reader = await reader_for(
                b"".join(encode_frame(f) for f in frames))
            got = [await read_frame(reader) for _ in range(3)]
            assert got == frames

        run(main())

    def test_truncated_header_raises(self):
        async def main():
            reader = await reader_for(b"\x00\x00")
            with pytest.raises(FrameError, match="truncated frame header"):
                await read_frame(reader)

        run(main())

    def test_truncated_body_raises(self):
        async def main():
            frame = encode_frame({"op": "stats"})
            reader = await reader_for(frame[:-3])
            with pytest.raises(FrameError, match="truncated frame body"):
                await read_frame(reader)

        run(main())

    def test_oversized_frame_rejected(self):
        async def main():
            reader = await reader_for(struct.pack(">I", 1 << 30) + b"x")
            with pytest.raises(FrameError, match="exceeds"):
                await read_frame(reader)

        run(main())

    def test_zero_length_frame_rejected(self):
        async def main():
            reader = await reader_for(struct.pack(">I", 0))
            with pytest.raises(FrameError, match="zero-length"):
                await read_frame(reader)

        run(main())

    def test_malformed_json_raises(self):
        body = b"not json at all"
        with pytest.raises(FrameError, match="malformed JSON"):
            decode_body(body)

    def test_non_object_body_raises(self):
        with pytest.raises(FrameError, match="must be a JSON object"):
            decode_body(b"[1, 2, 3]")

    def test_encode_refuses_oversized_body(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_sync_socket_round_trip(self):
        server, client = socket.socketpair()
        try:
            payload = ok_frame(4, scores=[0.25, 0.5])
            sender = threading.Thread(
                target=send_frame, args=(server, payload))
            sender.start()
            assert recv_frame(client) == payload
            sender.join()
            server.close()
            assert recv_frame(client) is None  # clean EOF
        finally:
            client.close()

    def test_sync_truncated_raises(self):
        server, client = socket.socketpair()
        try:
            frame = encode_frame({"op": "stats"})
            server.sendall(frame[:-2])
            server.close()
            with pytest.raises(FrameError, match="closed mid-frame"):
                recv_frame(client)
        finally:
            client.close()


#: ``v`` values that must all get ``version_mismatch``: ``True == 1``,
#: ``1.0 == 1`` and ``2.0 == 2`` in Python, so only the type check keeps
#: them out.
NOT_THE_VERSION = [True, False, 1, 1.0, 2.0, "2", None, 3]


@pytest.fixture(scope="module")
def gateway():
    """A gateway over an empty fleet: envelope checks never reach it."""
    fleet = DeploymentFleet()
    with fleet, serve_in_thread(fleet) as handle:
        yield handle.address


def exchange(address, payload: dict, codec: str) -> dict:
    with socket.create_connection(address, timeout=10) as sock:
        send_frame(sock, payload, codec=codec)
        return recv_frame(sock)


class TestValidation:
    def test_valid_request(self):
        payload = request_frame("ingest", 5, stream="cam-0")
        assert payload["v"] == PROTOCOL_VERSION
        assert validate_request(payload) == "ingest"

    def test_version_mismatch(self):
        with pytest.raises(RequestError) as err:
            validate_request({"v": 99, "op": "stats", "id": 1})
        assert err.value.code == "version_mismatch"

    @pytest.mark.parametrize("version", NOT_THE_VERSION, ids=repr)
    def test_only_the_int_version_validates(self, version):
        with pytest.raises(RequestError) as err:
            validate_request({"v": version, "op": "stats", "id": 1})
        assert err.value.code == "version_mismatch"

    @pytest.mark.parametrize("codec", ["json", "binary"])
    @pytest.mark.parametrize("version", NOT_THE_VERSION, ids=repr)
    def test_served_version_mismatch_replies_at_v2(self, gateway, version,
                                                   codec):
        """Sent as a JSON body or as binary meta, every ``v`` but the int
        2 is refused, and the refusal's envelope says ``"v": 2``."""
        reply = exchange(gateway, {"v": version, "op": "stats", "id": 1},
                         codec)
        assert reply["error"]["code"] == "version_mismatch"
        assert type(reply["v"]) is int and reply["v"] == PROTOCOL_VERSION
        assert reply["id"] == 1

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_served_version_passes(self, gateway, codec):
        reply = exchange(gateway, request_frame("stats", 1), codec)
        assert reply["ok"] is True
        assert type(reply["v"]) is int and reply["v"] == PROTOCOL_VERSION

    def test_missing_op(self):
        with pytest.raises(RequestError) as err:
            validate_request({"v": PROTOCOL_VERSION, "id": 1})
        assert err.value.code == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(RequestError) as err:
            validate_request({"v": PROTOCOL_VERSION, "op": "explode",
                              "id": 1})
        assert err.value.code == "unknown_op"

    def test_bad_id_type(self):
        with pytest.raises(RequestError) as err:
            validate_request({"v": PROTOCOL_VERSION, "op": "stats",
                              "id": [1]})
        assert err.value.code == "bad_request"

    def test_error_frame_shape(self):
        frame = error_frame(9, "backpressure", "queue full")
        assert frame["ok"] is False
        assert frame["id"] == 9
        assert frame["error"]["code"] == "backpressure"

    def test_error_frame_rejects_unknown_code(self):
        with pytest.raises(AssertionError):
            error_frame(1, "made_up_code", "nope")

    def test_every_error_code_has_a_producer(self):
        """A code in ``ERROR_CODES`` that no module outside the table
        spells as a string literal can never reach a client: it is a
        dead entry in the wire contract."""
        literals: set[str] = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            table = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Name)
                        and target.id == "ERROR_CODES"
                        for target in node.targets):
                    table.update(id(n) for n in ast.walk(node.value))
            literals.update(
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and id(node) not in table)
        assert [code for code in ERROR_CODES if code not in literals] == []
