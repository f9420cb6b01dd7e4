"""Wire-codec tests: binary frames end-to-end, negotiation and the v1
fallback, mixed-codec clients on one server, and frame-cap enforcement.

The invariant under test everywhere: whatever codec the bytes travel
in, the decoded scores are bit-identical to a direct in-process
``fleet.step()`` run.
"""

import socket
import struct

import numpy as np
import pytest

from repro.api import Deployment
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.gateway import GatewayClient, GatewayError, serve_in_thread
from repro.gateway.protocol import (
    ERROR_CODES,
    FrameError,
    MAX_FRAME_BYTES,
    encode_frame,
    frame_codec,
    recv_frame,
    request_frame,
)
from repro.serving import DeploymentFleet
from repro.utils.binframe import BIN_HEADER, BIN_MAGIC, decode_payload

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
        for event in fleet.step(batched=True):
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


class TestNegotiation:
    def test_binary_preferring_client_upgrades(self, fleet_factory):
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                assert client.negotiated_codec == "json"
                reply = client.attach("cam-0")
                assert client.negotiated_codec == "binary"
                assert client.protocol_version == 2
                assert set(reply["codecs"]) == {"json", "binary"}

    def test_json_preferring_client_stays_json(self, fleet_factory):
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address, codec="json") as client:
                client.attach("cam-0")
                assert client.negotiated_codec == "json"
                assert client.protocol_version == 1

    def test_v1_only_server_downgrades_the_client(self, fleet_factory,
                                                  materialized):
        """A codec='json' server is a legacy v1 peer: the v2 attach gets
        version_mismatch, the client silently falls back to v1 JSON, and
        scores still match the direct run bit for bit."""
        windows, reference = materialized
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, codec="json") as handle:
            with GatewayClient(*handle.address) as client:
                reply = client.attach("cam-0")
                assert client.protocol_version == 1
                assert client.negotiated_codec == "json"
                assert reply.get("codecs") == ["json"]
                for round_index in range(ROUNDS):
                    got = client.scores("cam-0",
                                        windows["cam-0"][round_index])
                    np.testing.assert_array_equal(
                        got, reference["cam-0"][round_index])

    def test_binary_frame_to_v1_server_is_bad_frame(self, fleet_factory):
        with fleet_factory() as fleet, \
                serve_in_thread(fleet, codec="json") as handle:
            frame = encode_frame(request_frame("stats", 1, version=1),
                                 codec="binary")
            reply = raw_exchange(handle.address, [frame])[0]
            assert reply is not None
            assert reply["error"]["code"] == "bad_frame"
            assert reply["v"] == 1

    def test_binary_frame_claiming_v1_is_version_mismatch(
            self, fleet_factory):
        """Binary framing is a v2 feature; a binary frame whose envelope
        says v=1 is self-contradictory and typed as version_mismatch."""
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            frame = encode_frame(request_frame("stats", 1, version=1),
                                 codec="binary")
            reply = raw_exchange(handle.address, [frame])[0]
            assert reply["error"]["code"] == "version_mismatch"


class TestBinaryParity:
    def test_binary_scores_and_ingest_parity(self, fleet_factory,
                                             materialized):
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address) as client:
                for name in windows:
                    client.attach(name)
                assert client.negotiated_codec == "binary"
                for round_index in range(ROUNDS):
                    for name in windows:
                        reply = client.ingest(name,
                                              windows[name][round_index])
                        np.testing.assert_array_equal(
                            np.asarray(reply["scores"]),
                            reference[name][round_index])

    def test_mixed_codec_clients_share_one_server(self, fleet_factory,
                                                  materialized):
        """One JSON client and one binary client interleave rounds on
        the same server; every response matches the direct run."""
        windows, reference = materialized
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            with GatewayClient(*handle.address, codec="json") as alice, \
                    GatewayClient(*handle.address) as bob:
                alice.attach("cam-0")
                bob.attach("cam-1")
                assert alice.negotiated_codec == "json"
                assert bob.negotiated_codec == "binary"
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
            with GatewayClient(*handle.address) as client:
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
            with GatewayClient(*handle.address, codec="json") as js, \
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
        with fleet_factory() as fleet, serve_in_thread(fleet) as handle:
            reply = raw_exchange(handle.address, [BIN_MAGIC + b"\x02"])[0]
            assert reply is None  # server dropped the unparseable stream

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
