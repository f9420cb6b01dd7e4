"""Fuzz-grade tests for the binary frame body codec.

The codec sits under both the gateway wire protocol and the WAL, so a
malformed body must always surface as :class:`BinaryFormatError` —
never a struct/json/numpy exception, and never a silently wrong array.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.utils.binframe import (
    BIN_HEADER,
    BIN_MAGIC,
    BinaryFormatError,
    decode_body,
    decode_payload,
    encode_payload,
    is_binary,
    parse_header,
    split_payload,
)


def round_trip(payload, **kwargs):
    decoded, header = decode_payload(encode_payload(payload, **kwargs))
    return decoded, header


class TestRoundTrip:
    def test_meta_and_arrays(self):
        rng = np.random.default_rng(3)
        payload = {"op": "ingest", "id": 7, "stream": "cam-1",
                   "windows": rng.normal(size=(2, 4, 6)),
                   "scores": rng.normal(size=(5,))}
        decoded, header = round_trip(payload, version=2, op=3, flags=1)
        assert header.version == 2 and header.op == 3 and header.flags == 1
        assert header.narrays == 2
        assert decoded["op"] == "ingest" and decoded["id"] == 7
        np.testing.assert_array_equal(decoded["windows"],
                                      payload["windows"])
        np.testing.assert_array_equal(decoded["scores"], payload["scores"])
        assert decoded["windows"].dtype == np.float64

    def test_no_arrays(self):
        decoded, header = round_trip({"op": "stats", "id": None})
        assert header.narrays == 0 and header.payload_len == 0
        assert decoded == {"op": "stats", "id": None}

    def test_zero_dim_and_empty_arrays(self):
        payload = {"a": np.array(4.25), "b": np.empty((0, 3))}
        decoded, _ = round_trip(payload)
        # ascontiguousarray promotes 0-d to (1,) — values still exact.
        assert decoded["a"].shape == (1,) and decoded["a"][0] == 4.25
        assert decoded["b"].shape == (0, 3)

    def test_nan_inf_preserved_bit_for_bit(self):
        ugly = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                         np.nextafter(1.0, 2.0)])
        decoded, _ = round_trip({"x": ugly})
        assert decoded["x"].tobytes() == ugly.tobytes()

    def test_non_float64_input_is_coerced(self):
        decoded, _ = round_trip({"x": np.arange(6, dtype=np.int32)})
        assert decoded["x"].dtype == np.float64
        np.testing.assert_array_equal(decoded["x"], np.arange(6.0))

    def test_decoded_arrays_are_writable(self):
        decoded, _ = round_trip({"x": np.ones((2, 2))})
        decoded["x"][0, 0] = -1.0
        assert decoded["x"][0, 0] == -1.0

    def test_split_payload_partition(self):
        meta, arrays = split_payload({"a": 1, "b": np.zeros(2), "c": [1]})
        assert meta == {"a": 1, "c": [1]}
        assert set(arrays) == {"b"}


class TestEncodingIsPinned:
    """The bytes a payload encodes to are the format: the WAL stores them
    and peers of other builds read them, so they never move."""

    META = {"op": "attach", "id": 3, "stream": "cam-\u00e9",
            "tags": ["a", 1.5, None], "n": {"k": True}}

    @staticmethod
    def arrays_payload():
        return {"op": "ingest", "id": 7, "stream": "cam-1",
                "windows": np.linspace(-1.0, 1.0, 48).reshape(2, 4, 6),
                "scores": np.arange(5, dtype=np.float32) / 3,
                "point": np.array(4.25),
                "empty": np.empty((0, 3)),
                "strided": np.arange(12.0).reshape(3, 4).T,
                "big": np.arange(3.0).astype(">f8")}

    @staticmethod
    def spelled_out(payload, version=1, op=0, flags=0):
        """The module docstring's layout, built by hand."""
        meta, arrays = split_payload(payload)
        meta["_arrays"] = [[k, list(a.shape)] for k, a in arrays.items()]
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode()
        data = b"".join(a.astype("<f8").tobytes() for a in arrays.values())
        return BIN_HEADER.pack(BIN_MAGIC, version, op, flags, len(arrays),
                               len(meta_bytes), len(data)) + meta_bytes + data

    def test_json_meta_payload(self):
        body = encode_payload(self.META)
        assert body == self.spelled_out(self.META)
        assert hashlib.sha256(body).hexdigest() == (
            "38936f12a8176a796bdd85ac850daef9826c2c7c1d14a47ac55d55bdb0cf9502")

    def test_multi_array_payload(self):
        payload = self.arrays_payload()
        body = encode_payload(payload, version=2, op=3, flags=1)
        assert body == self.spelled_out(payload, version=2, op=3, flags=1)
        assert hashlib.sha256(body).hexdigest() == (
            "288b934350a17636d771c1d712c5a9f4b34c5c2980b99286fbd7e3bd59551d65")

    @pytest.mark.parametrize("buffer", [bytes, bytearray])
    def test_decoded_arrays_own_their_memory(self, buffer):
        payload = self.arrays_payload()
        frame = buffer(encode_payload(payload))
        header = parse_header(frame[:BIN_HEADER.size])
        body = frame[BIN_HEADER.size:]
        decoded = decode_body(header, body)
        raw = np.frombuffer(body, dtype=np.uint8)
        arrays = [decoded[key] for key in split_payload(payload)[1]]
        for index, array in enumerate(arrays):
            assert array.flags.writeable
            assert not np.shares_memory(array, raw)
            assert not any(np.shares_memory(array, other)
                           for other in arrays[index + 1:])
        if buffer is bytearray:  # a receive buffer, reused for the next frame
            body[:] = bytes(len(body))
            assert decoded["windows"].tobytes() == payload["windows"].tobytes()


class TestHeaderFuzz:
    def test_is_binary(self):
        body = encode_payload({"op": "stats"})
        assert is_binary(body)
        assert not is_binary(b"\x00\x00\x01\x00")
        assert not is_binary(b"{")

    def test_short_header(self):
        with pytest.raises(BinaryFormatError, match="16 bytes"):
            parse_header(BIN_MAGIC + b"\x00" * 5)

    @pytest.mark.parametrize("cut", [0, 1, 8, 15])
    def test_truncated_body_at_every_boundary(self, cut):
        body = encode_payload({"op": "stats", "x": np.ones(3)})
        with pytest.raises(BinaryFormatError):
            decode_payload(body[:cut])

    def test_bad_magic(self):
        body = bytearray(encode_payload({"op": "stats"}))
        body[0] ^= 0xFF
        with pytest.raises(BinaryFormatError, match="magic"):
            decode_payload(bytes(body))

    def test_zero_meta_length(self):
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 0, 0, 0)
        with pytest.raises(BinaryFormatError, match="zero-length meta"):
            parse_header(header)

    def test_lengths_exceeding_cap(self):
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 1, 64,
                                 0xFFFF_FFF0)
        with pytest.raises(BinaryFormatError, match="exceeds"):
            parse_header(header, max_bytes=1 << 20)

    def test_write_side_cap(self):
        with pytest.raises(BinaryFormatError, match="exceeds"):
            encode_payload({"op": "ingest", "w": np.zeros((64, 64))},
                           max_bytes=1024)

    def test_header_field_ranges(self):
        with pytest.raises(BinaryFormatError, match="out of range"):
            encode_payload({"op": "stats"}, version=256)
        with pytest.raises(BinaryFormatError, match="out of range"):
            encode_payload({"op": "stats"}, op=-1)

    def test_unserializable_meta(self):
        with pytest.raises(BinaryFormatError, match="JSON"):
            encode_payload({"op": object()})


class TestBodyFuzz:
    def _forged(self, meta: dict, payload: bytes = b"") -> bytes:
        """A body whose header is consistent but whose meta lies."""
        meta_bytes = json.dumps(meta).encode()
        narrays = len(meta.get("_arrays", []))
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, narrays,
                                 len(meta_bytes), len(payload))
        return header + meta_bytes + payload

    def test_body_length_mismatch(self):
        body = encode_payload({"op": "stats"})
        header = parse_header(body[:BIN_HEADER.size])
        with pytest.raises(BinaryFormatError, match="promised"):
            decode_body(header, body[BIN_HEADER.size:] + b"x")

    def test_malformed_meta_json(self):
        garbage = b"{nope"
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 0, len(garbage), 0)
        with pytest.raises(BinaryFormatError, match="malformed"):
            decode_payload(header + garbage)

    def test_non_object_meta(self):
        blob = b"[1,2]"
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 0, len(blob), 0)
        with pytest.raises(BinaryFormatError, match="JSON object"):
            decode_payload(header + blob)

    def test_missing_arrays_table(self):
        with pytest.raises(BinaryFormatError, match="_arrays"):
            decode_payload(self._forged({"op": "stats"}))

    def test_table_count_disagrees_with_header(self):
        meta_bytes = json.dumps({"op": "x", "_arrays": []}).encode()
        header = BIN_HEADER.pack(BIN_MAGIC, 2, 1, 0, 3, len(meta_bytes), 0)
        with pytest.raises(BinaryFormatError, match="promised 3"):
            decode_payload(header + meta_bytes)

    @pytest.mark.parametrize("entry", [
        "windows",                       # not a list
        ["windows"],                     # missing shape
        [3, [2]],                        # non-string field
        ["w", "shape"],                  # non-list shape
        ["w", [2, -1]],                  # negative dim
        ["w", [2, True]],                # bool dim
        ["w", [2, 2.0]],                 # float dim
    ])
    def test_malformed_table_entries(self, entry):
        body = self._forged({"op": "x", "_arrays": [entry]}, b"\x00" * 32)
        with pytest.raises(BinaryFormatError):
            decode_payload(body)

    def test_shape_claims_more_bytes_than_payload(self):
        body = self._forged({"op": "x", "_arrays": [["w", [1000, 1000]]]},
                            b"\x00" * 64)
        with pytest.raises(BinaryFormatError, match="remain"):
            decode_payload(body)

    def test_huge_shape_cannot_allocate(self):
        # prod(shape) overflows any real payload: must error, not OOM.
        body = self._forged(
            {"op": "x", "_arrays": [["w", [1 << 40, 1 << 40]]]},
            b"\x00" * 8)
        with pytest.raises(BinaryFormatError):
            decode_payload(body)

    def test_trailing_unclaimed_bytes(self):
        body = self._forged({"op": "x", "_arrays": [["w", [2]]]},
                            b"\x00" * 24)
        with pytest.raises(BinaryFormatError, match="trailing"):
            decode_payload(body)

    def test_random_mutations_never_escape_format_error(self):
        rng = np.random.default_rng(11)
        pristine = encode_payload(
            {"op": "ingest", "id": 1, "w": np.ones((3, 4))}, version=2,
            op=1)
        for _ in range(300):
            blob = bytearray(pristine)
            for _ in range(rng.integers(1, 4)):
                blob[rng.integers(0, len(blob))] = rng.integers(0, 256)
            try:
                decoded, _ = decode_payload(bytes(blob))
            except BinaryFormatError:
                continue
            assert isinstance(decoded, dict)
