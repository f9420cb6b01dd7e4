"""Wire-codec tests: binary frames end-to-end, the one protocol version,
JSON and binary frames on one server and one connection, frame fuzzing
(byte mutations and schema drift), and frame-cap enforcement.

The invariant under test everywhere: whatever codec the bytes travel
in, the decoded scores are bit-identical to a direct in-process
``fleet.step()`` run.
"""

import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.errors import ConfigError
from repro.gateway import (
    GatewayClient,
    GatewayError,
    GatewayServer,
    serve_in_thread,
)
from repro.gateway.protocol import (
    ERROR_CODES,
    FrameError,
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    encode_frame,
    frame_codec,
    recv_frame,
    request_frame,
    send_frame,
)
from repro.serving import DeploymentFleet
from repro.utils.binframe import (
    BIN_HEADER,
    BIN_MAGIC,
    decode_payload,
    encode_payload,
)

from json_peer import JsonPeer

ROUNDS = 3


def make_stream(frame_generator, seed, windows_per_step=2):
    return TrendShiftStream(frame_generator, TrendShiftConfig(
        steps_before_shift=2, steps_after_shift=2,
        windows_per_step=windows_per_step, window=4, seed=seed))


@pytest.fixture()
def fleet_factory(fresh_model, frame_generator):
    def make(streams=3):
        fleet = DeploymentFleet()
        model = fresh_model("Stealing", window=4)
        model.eval()
        for index in range(streams):
            fleet.add(f"cam-{index}",
                      Deployment(model, mission="Stealing", adaptive=False),
                      make_stream(frame_generator, seed=40 + index))
        return fleet
    return make


@pytest.fixture()
def materialized(fleet_factory):
    fleet = fleet_factory()
    windows = {slot.name: [np.asarray(slot.stream.batch(r).windows,
                                      dtype=np.float64)
                           for r in range(ROUNDS)]
               for slot in fleet.slots}
    reference = {name: [] for name in fleet.names}
    for _ in range(ROUNDS):
        for event in fleet.step():
            reference[event.stream].append(event.scores)
    return windows, reference


def raw_exchange(address, frames: list[bytes],
                 max_bytes: int = MAX_FRAME_BYTES) -> list:
    """Send raw pre-encoded frames on a bare socket; collect replies
    until the server stops answering (None = connection closed)."""
    replies = []
    with socket.create_connection(address, timeout=10) as sock:
        for frame in frames:
            sock.sendall(frame)
            try:
                replies.append(recv_frame(sock, max_bytes))
            except (FrameError, ConnectionError, OSError, TimeoutError):
                replies.append(None)
                break
    return replies


class TestProtocolVersion:
    def test_client_sends_every_frame_binary(self, fleet_factory,
                                            materialized):
        windows, _ = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                reply = client.attach("cam-0")
                assert frame_codec(reply) == "binary"
                assert "codecs" not in reply
                client.ingest("cam-0", windows["cam-0"][0])
                counters = client.stats()["metrics"]["counters"]
        assert counters["gateway.frames.binary"] == 3
        assert counters["gateway.frames.json"] == 0

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_v1_request_is_version_mismatch(self, fleet_factory, codec):
        """Protocol v1 is gone: a v1 envelope gets a typed refusal at v2,
        in the codec it arrived in."""
        frame = encode_frame({**request_frame("stats", 1), "v": 1},
                             codec=codec)
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            reply = raw_exchange(handle.address, [frame])[0]
        assert reply["error"]["code"] == "version_mismatch"
        assert reply["v"] == 2
        assert frame_codec(reply) == codec

    def test_binary_header_claiming_v1_is_version_mismatch(
            self, fleet_factory):
        """The header's version byte counts even when the meta says 2."""
        frame = encode_payload(request_frame("stats", 1), version=1,
                               op=OPS.index("stats") + 1)
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            reply = raw_exchange(handle.address, [frame])[0]
        assert reply["error"]["code"] == "version_mismatch"
        assert reply["v"] == 2

    @pytest.mark.parametrize("codec", ["json", "FAST", None])
    def test_server_codec_other_than_binary_refused(self, fleet_factory,
                                                    codec):
        with fleet_factory() as fleet:
            with pytest.raises(ConfigError, match="codec"):
                GatewayServer(fleet, codec=codec)


class TestBinaryParity:
    def test_binary_scores_and_ingest_parity(self, fleet_factory,
                                             materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                for name in windows:
                    client.attach(name)
                for round_index in range(ROUNDS):
                    for name in windows:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        assert frame_codec(reply) == "binary"
                        np.testing.assert_array_equal(
                            np.asarray(reply["scores"]),
                            reference[name][round_index])

    def test_mixed_codec_clients_share_one_server(self, fleet_factory,
                                                  materialized):
        """One JSON peer and one binary client interleave rounds on the
        same server; every response matches the direct run."""
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with JsonPeer(handle.address) as alice, \
                    GatewayClient(*handle.address) as bob:
                alice.attach("cam-0")
                bob.attach("cam-1")
                for round_index in range(ROUNDS):
                    got_a = alice.scores("cam-0",
                                         windows["cam-0"][round_index])
                    got_b = bob.scores("cam-1",
                                       windows["cam-1"][round_index])
                    np.testing.assert_array_equal(
                        got_a, reference["cam-0"][round_index])
                    np.testing.assert_array_equal(
                        got_b, reference["cam-1"][round_index])
                counters = bob.stats()["metrics"]["counters"]
                assert counters["gateway.frames.json"] > 0
                assert counters["gateway.frames.binary"] > 0

    def test_per_frame_codec_switch_on_one_connection(self, fleet_factory,
                                                      materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with JsonPeer(handle.address) as client:
                client.attach("cam-0")
                json_reply = client.request(
                    "scores", codec="json", stream="cam-0",
                    windows=windows["cam-0"][0].tolist())
                binary_reply = client.request(
                    "scores", codec="binary", stream="cam-0",
                    windows=windows["cam-0"][0])
                assert frame_codec(json_reply) == "json"
                assert frame_codec(binary_reply) == "binary"
                np.testing.assert_array_equal(
                    np.asarray(json_reply["scores"]),
                    reference["cam-0"][0])
                np.testing.assert_array_equal(
                    np.asarray(binary_reply["scores"]),
                    reference["cam-0"][0])

    def test_json_control_and_binary_ingests_share_a_connection(
            self, fleet_factory, materialized):
        """The load generator's traffic: attach, stats and shutdown as
        JSON frames, ingests as binary frames, all on one socket."""
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with JsonPeer(handle.address) as peer:
                reply = peer.call("attach", stream="cam-0")
                assert frame_codec(reply) == "json"
                for round_index in range(ROUNDS):
                    reply = peer.call("ingest", codec="binary",
                                      stream="cam-0",
                                      windows=windows["cam-0"][round_index])
                    assert frame_codec(reply) == "binary"
                    assert reply["step"] == round_index
                    np.testing.assert_array_equal(
                        reply["scores"], reference["cam-0"][round_index])
                stats = peer.call("stats")
                assert frame_codec(stats) == "json"
                counters = stats["metrics"]["counters"]
                assert counters["gateway.frames.binary"] == ROUNDS
                assert counters["gateway.frames.json"] == 2
                reply = peer.call("shutdown")
                assert frame_codec(reply) == "json"
                assert reply["draining"] is True

    def test_nan_inf_windows_round_trip(self, fleet_factory, materialized):
        """Pathological float payloads ride binary frames bit-exactly, and
        reach admission in either codec — which refuses them alike with a
        typed ``bad_request``, before any stream sees them."""
        windows, _ = materialized
        ugly = np.array(windows["cam-0"][0])
        ugly[0, 0, 0] = np.nan
        ugly[0, 1, 0] = np.inf
        ugly[0, 1, 1] = -np.inf
        frame = encode_frame(request_frame("scores", 1, stream="cam-0",
                                           windows=ugly), codec="binary")
        decoded, _ = decode_payload(frame)
        assert np.asarray(decoded["windows"]).tobytes() == ugly.tobytes()
        refusals = []
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with JsonPeer(handle.address) as js, \
                    GatewayClient(*handle.address) as bin_client:
                for client in (js, bin_client):
                    client.attach("cam-0")
                    with pytest.raises(GatewayError) as err:
                        client.scores("cam-0", ugly)
                    refusals.append((err.value.code, err.value.message))
        assert refusals[0] == refusals[1]
        assert refusals[0][0] == "bad_request"


class TestFrameFuzz:
    def test_truncated_binary_header_closes_connection(self, fleet_factory):
        """Three bytes of a header, then the peer's end of the stream: the
        server names the truncation once and hangs up."""
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(BIN_MAGIC + b"\x02")
                sock.shutdown(socket.SHUT_WR)
                reply = recv_frame(sock)
                assert reply["error"]["code"] == "bad_frame"
                assert reply["error"]["message"] == "truncated frame header"
                assert recv_frame(sock) is None  # then the close

    def test_oversized_binary_lengths_rejected(self, fleet_factory):
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, max_frame_bytes=4096) as handle:
            header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 1, 64,
                                     0x7FFF_FFF0)
            reply = raw_exchange(handle.address, [header])[0]
            assert reply is not None
            assert reply["error"]["code"] == "bad_frame"

    def test_garbage_binary_body_is_typed_error(self, fleet_factory):
        garbage = b"\x9cnot-json\xff" * 3
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 0, len(garbage), 0)
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            reply = raw_exchange(handle.address, [header + garbage])[0]
            assert reply is not None
            assert reply["error"]["code"] == "bad_frame"

    def test_mutated_binary_frames_never_kill_the_server(
            self, fleet_factory, materialized):
        """Random corruptions of a valid binary request either produce a
        typed error or a closed connection — and the server keeps
        serving well-formed clients afterwards."""
        windows, reference = materialized
        rng = np.random.default_rng(23)
        pristine = encode_frame(
            request_frame("scores", 1, stream="cam-0",
                          windows=windows["cam-0"][0]),
            codec="binary")
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            for _ in range(25):
                blob = bytearray(pristine)
                for _ in range(rng.integers(1, 6)):
                    blob[rng.integers(0, len(blob))] = rng.integers(0, 256)
                replies = raw_exchange(handle.address, [bytes(blob)])
                reply = replies[0]
                if reply is not None and "error" in reply:
                    # Any *typed* error is fine (a mutated stream name
                    # legitimately yields not_attached); the point is
                    # no crash and no untyped failure.
                    assert reply["error"]["code"] in ERROR_CODES
            with GatewayClient(*handle.address) as client:
                client.attach("cam-0")
                np.testing.assert_array_equal(
                    client.scores("cam-0", windows["cam-0"][0]),
                    reference["cam-0"][0])


def _json_text(value, escape: bool = False) -> str:
    """One JSON value; ``escape`` spells each character of a string as
    a ``\\u`` escape."""
    if escape and isinstance(value, str):
        return '"' + "".join(f"\\u{ord(char):04x}" for char in value) + '"'
    if isinstance(value, np.ndarray):
        value = value.tolist()
    return json.dumps(value)


def drifted_frame(fields: dict, escaped: set, codec: str) -> bytes:
    """A request frame built by hand from ``fields``, so its JSON (body
    or binary meta) can hold what ``encode_frame`` never writes."""
    arrays = {key: value for key, value in fields.items()
              if codec == "binary" and isinstance(value, np.ndarray)}
    meta = {key: value for key, value in fields.items() if key not in arrays}
    if codec == "binary":
        meta["_arrays"] = [[key, list(array.shape)]
                           for key, array in arrays.items()]
    body = ("{" + ",".join(f"{json.dumps(key)}:"
                           f"{_json_text(value, key in escaped)}"
                           for key, value in meta.items()) + "}").encode()
    if codec == "json":
        return struct.pack(">I", len(body)) + body
    op = fields.get("op")
    op_code = OPS.index(op) + 1 if isinstance(op, str) and op in OPS else 0
    buffers = b"".join(array.astype("<f8").tobytes()
                       for array in arrays.values())
    return BIN_HEADER.pack(BIN_MAGIC, PROTOCOL_VERSION, op_code, 0,
                           len(arrays), len(body), len(buffers)) \
        + body + buffers


def _spelled(value):
    """Numbers spelled as strings, windows included."""
    if isinstance(value, np.ndarray):
        return [[[repr(x) for x in row] for row in window]
                for window in value.tolist()]
    return value if isinstance(value, str) else str(value)


#: How one field drifts from the schema.
DRIFTS = ("vanish", "empty", "string", "object", "escape")

#: The fuzzed requests' streams and window ops weigh double, so that
#: requests reach admission and the engine often.
ATTACHED = ("cam-1", "cam-2")
WINDOW_OPS = ("ingest", "scores")


class TestCodecDrift:
    def test_schema_drift_gets_one_typed_reply(self, fleet_factory,
                                               materialized):
        """Requests in both codecs whose JSON drifts from the schema —
        vanishing fields, ``""`` values, ``\\u`` escapes in names,
        numbers spelled as strings, objects where scalars belong — each
        get exactly one reply with a typed, non-``internal`` code (or one
        ``bad_frame`` and a close); the server then still serves
        reference scores."""
        windows, reference = materialized

        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def fuzz(data):
            fields = {
                "v": PROTOCOL_VERSION,
                "op": data.draw(st.sampled_from(WINDOW_OPS * 2 + (
                    "attach", "detach", "stats"))),
                "id": data.draw(st.integers(0, 2 ** 31)),
                "stream": data.draw(st.sampled_from(ATTACHED * 2 + (
                    "ghost", "cam-\u00e9", "\ud800"))),
                "windows": windows["cam-1"][0],
            }
            # At most two fields drift, so most requests get past the
            # envelope checks to admission and the engine.
            drifts = data.draw(st.dictionaries(
                st.sampled_from(tuple(fields)), st.sampled_from(DRIFTS),
                max_size=2))
            escaped = set()
            for key, drift in drifts.items():
                if drift == "vanish":
                    del fields[key]
                elif drift == "empty":
                    fields[key] = ""
                elif drift == "string":
                    fields[key] = _spelled(fields[key])
                elif drift == "object":
                    fields[key] = data.draw(st.sampled_from(
                        ({}, {"value": 2}, {"stream": "cam-1"})))
                elif drift == "escape":
                    escaped.add(key)
            frame = drifted_frame(
                fields, escaped,
                data.draw(st.sampled_from(("json", "binary"))))
            with socket.create_connection(handle.address,
                                          timeout=10) as sock:
                for name in ATTACHED:
                    send_frame(sock, request_frame("attach", name,
                                                   stream=name))
                    assert recv_frame(sock)["ok"]
                sock.sendall(frame)
                reply = recv_frame(sock)
                assert reply is not None
                if not reply["ok"]:
                    code = reply["error"]["code"]
                    assert code in ERROR_CODES and code != "internal", reply
                    if code == "bad_frame":
                        assert recv_frame(sock) is None
                        return
                # Exactly one reply: the next frame back answers the probe.
                send_frame(sock, request_frame("stats", "probe"))
                assert recv_frame(sock)["id"] == "probe"

        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            fuzz()
            with GatewayClient(*handle.address) as client:
                client.attach("cam-0")
                reply = client.ingest("cam-0", windows["cam-0"][0])
        assert reply["step"] == 0
        np.testing.assert_array_equal(reply["scores_array"],
                                      reference["cam-0"][0])


class TestFrameCap:
    def test_client_write_cap_raises_before_send(self, fleet_factory):
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address,
                               max_frame_bytes=2048) as client:
                client.attach("cam-0")
                with pytest.raises(FrameError, match="exceeds"):
                    client.ingest("cam-0", np.zeros((8, 8, 16)))
                # The connection survived: nothing hit the socket.
                assert client.stats()["engine"] is not None

    def test_server_response_overflow_is_typed_bad_frame(
            self, fleet_factory):
        """A response the server cannot fit under its own frame cap must
        come back as a typed bad_frame error, not a silent close."""
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, max_frame_bytes=384) as handle:
            frame = encode_frame(request_frame("stats", 1), codec="json",
                                 max_bytes=MAX_FRAME_BYTES)
            reply = raw_exchange(handle.address, [frame])[0]
            assert reply is not None
            assert reply["error"]["code"] == "bad_frame"
            assert "frame cap" in reply["error"]["message"]

    def test_encode_frame_binary_write_cap(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(request_frame("ingest", 1, stream="s",
                                       windows=np.zeros((32, 32, 32))),
                         codec="binary", max_bytes=4096)


class TestJsonPrefixDisambiguation:
    def test_json_length_prefix_can_never_look_binary(self):
        # A JSON frame's first byte is the high byte of a u32 BE length
        # <= MAX_FRAME_BYTES; the binary magic's first byte is 0xb7.
        assert struct.pack(">I", MAX_FRAME_BYTES)[0] < BIN_MAGIC[0]
