"""Shared-memory buffer tests: the buffer itself (no /dev/shm entry,
its heap warm-up) and pickle-5 message framing.  No fleet uses the
buffers any more; the benchmark's layer replay still times them.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.serving import RingBuffer, RingError, dumps_message, loads_message


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestRingBuffer:
    def test_create_attach_round_trip(self):
        """A second mapping of the descriptor (what a worker maps) sees
        the creator's message; no /dev/shm name is ever made."""
        before = shm_entries()
        with RingBuffer.create(1 << 16) as ring:
            with RingBuffer(os.dup(ring.fileno())) as peer:
                assert ring.write(b"hello rings")
                assert bytes(peer.read(11)) == b"hello rings"
                assert ring.used() == 0
            assert shm_entries() == before

    def test_wraparound_many_cycles(self):
        """Alternate far past capacity: every message round-trips intact
        and the buffer ends empty."""
        with RingBuffer.create(1 << 12) as ring:
            capacity = ring.capacity
            message = bytes(range(256)) * 3   # 768 bytes, not a divisor
            cycles = (capacity // len(message)) * 50
            for index in range(cycles):
                stamped = message + index.to_bytes(8, "little")
                assert ring.write(stamped)
                assert bytes(ring.read(len(stamped))) == stamped
            assert ring.used() == 0
            ring.unlink()

    def test_interleaved_writes_wrap_the_boundary(self):
        with RingBuffer.create(1 << 12) as ring:
            chunk = ring.capacity // 3 + 7    # not a divisor of the capacity
            for index in range(30):
                data = bytes([index % 251]) * chunk
                assert ring.write(data)
                assert bytes(ring.read(chunk)) == data
            ring.unlink()

    def test_one_message_in_flight_lands_at_offset_zero(self):
        """A second write before a read is refused; alternating messages
        always land at offset 0, so after 50 rounds of a 768-byte message
        in a 4 KiB buffer no data byte past 768 was ever written."""
        message = bytes(range(256)) * 3
        with RingBuffer.create(1 << 12) as ring:
            assert ring.write(message)
            assert not ring.write(b"x")
            for _ in range(50):
                assert bytes(ring.read(len(message))) == message
                assert ring.write(message)
            size = os.fstat(ring.fileno()).st_size
            data = os.pread(ring.fileno(), ring.capacity,
                            size - ring.capacity)
            assert data[:len(message)] == message
            assert data[len(message):] == bytes(ring.capacity - len(message))

    def test_oversized_write_returns_false(self):
        with RingBuffer.create(1 << 12) as ring:
            assert not ring.write(b"\x00" * (ring.capacity + 1))
            # A full ring refuses further writes but never corrupts.
            assert ring.write(b"\x01" * ring.capacity)
            assert not ring.write(b"x")
            assert bytes(ring.read(ring.capacity)) == b"\x01" * ring.capacity
            assert ring.write(b"x")
            ring.unlink()

    def test_read_past_unread_is_ring_error(self):
        with RingBuffer.create(1 << 12) as ring:
            ring.write(b"abc")
            with pytest.raises(RingError, match="desynchronized"):
                ring.read(4)
            ring.unlink()

    def test_closed_ring_refuses_io(self):
        ring = RingBuffer.create(1 << 12)
        ring.close()
        with pytest.raises(RingError, match="closed"):
            ring.write(b"x")
        with pytest.raises(RingError, match="closed"):
            ring.read(1)
        ring.unlink()


    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's dynamic mmap threshold")
    def test_mapping_keeps_round_buffers_on_a_warm_heap(self):
        """A process that maps a buffer reuses its round-sized allocations
        instead of faulting them in and trimming them every round (a
        process that loads no model has nothing else to warm its heap)
        — and warming touches no page."""
        script = textwrap.dedent("""
            import resource, sys
            from repro.serving import RingBuffer

            def hwm_mb():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM"):
                            return int(line.split()[1]) / 1024

            def faults():
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

            def round_buffers():  # one round's message copies, then freed
                return [bytearray(3 << 20) for _ in range(3)]

            before = hwm_mb()
            if sys.argv[1] == "ring":
                ring = RingBuffer.create(8 << 20)
            grown = hwm_mb() - before
            round_buffers()
            start = faults()
            for _ in range(20):
                round_buffers()
            print(faults() - start, grown)
        """)
        src = str(Path(repro.__file__).resolve().parents[1])

        def run(mode):
            out = subprocess.run(
                [sys.executable, "-c", script, mode], check=True,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src}).stdout.split()
            return int(out[0]), float(out[1])

        cold_faults, _ = run("none")
        warm_faults, grown_mb = run("ring")
        assert cold_faults > 20 * 1000  # 9 MB re-faulted every round
        assert warm_faults < 100
        assert grown_mb < 1


class TestMessageFraming:
    def test_numpy_out_of_band_round_trip(self):
        rng = np.random.default_rng(7)
        message = ("ok", {"scores": rng.normal(size=(4, 6)),
                          "meta": [1, "two"]})
        blob = dumps_message(message)
        kind, payload = loads_message(bytearray(blob))
        assert kind == "ok" and payload["meta"] == [1, "two"]
        np.testing.assert_array_equal(payload["scores"],
                                      message[1]["scores"])
        payload["scores"][0, 0] = -1.0     # decoded arrays are writable

    def test_ring_to_message_round_trip(self):
        message = {"windows": np.arange(24.0).reshape(2, 3, 4)}
        with RingBuffer.create(1 << 16) as ring:
            blob = dumps_message(message)
            assert ring.write(blob)
            decoded = loads_message(ring.read(len(blob)))
            np.testing.assert_array_equal(decoded["windows"],
                                          message["windows"])
            ring.unlink()

    @pytest.mark.parametrize("blob", [
        b"",                                   # shorter than the count
        b"\x00\x00\x00\x00",                   # zero segments
        b"\xff\xff\xff\xff",                   # absurd segment count
        dumps_message({"a": 1})[:-2],          # truncated payload
        dumps_message({"a": 1}) + b"xx",       # trailing bytes
    ])
    def test_malformed_blobs_raise_ring_error(self, blob):
        with pytest.raises(RingError):
            loads_message(blob)

    def test_undecodable_pickle_is_ring_error(self):
        blob = bytearray(dumps_message({"a": 1}))
        blob[-1] ^= 0xFF                       # corrupt the pickle tail
        with pytest.raises(RingError, match="undecodable"):
            loads_message(bytes(blob))
