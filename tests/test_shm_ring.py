"""Shared-memory buffer transport tests: the buffer itself, pickle-5
message framing, the sharded fleet's buffer path (parity + counters),
and what shard workers leave behind — no /dev/shm entry, no resource
tracker, no child process, no open descriptor — even after a SIGKILL.
"""

import os
import platform
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.serving.sharded as sharded_module
from repro.serving import (
    DEFAULT_RING_BYTES,
    RingBuffer,
    RingError,
    ShardedFleet,
    WorkerError,
    dumps_message,
    loads_message,
)
from test_serving_sharded import (
    INFRA,
    assert_rounds_identical,
    collect_rounds,
    make_single_fleet,
)

#: Run in a fresh interpreter, with no ``__main__`` guard: a 2-shard
#: fleet serves two rounds bit-identical to inline serving, then closes.
UNGUARDED_SCRIPT = """
import os
import sys

import numpy as np

from repro.api import Deployment
from repro.concepts import build_default_ontology
from repro.data import TrendShiftConfig, TrendShiftStream
from repro.gnn import MissionGNNConfig, MissionGNNModel
from repro.kg import KGGenerationConfig, KGGenerator
from repro.llm import SyntheticLLM
from repro.serving import DeploymentFleet, FleetInfra, ShardedFleet

infra = FleetInfra(embedding_seed=7, generator_seed=5)
embedding, generator = infra.build()
kg, _ = KGGenerator(SyntheticLLM(build_default_ontology(), seed=3),
                    KGGenerationConfig(depth=3)).generate("Stealing")
kg.initialize_tokens(embedding)
model = MissionGNNModel([kg], embedding,
                        MissionGNNConfig(temporal_window=4, seed=7))
model.eval()


def fleet():
    built = DeploymentFleet()
    for index in range(4):
        built.add(f"cam-{index}",
                  Deployment(model, mission="Stealing", adaptive=False),
                  TrendShiftStream(generator, TrendShiftConfig(
                      steps_before_shift=1, steps_after_shift=1,
                      windows_per_step=3, window=4, seed=30 + index)))
    return built


def children():
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
                command = cmdline.read()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            found.append(command)
    return found


inline = fleet()
expected = [[event.scores for event in inline.step()] for _ in range(2)]
sharded = ShardedFleet.from_fleet(fleet(), 2, infra=infra)
got = [[event.scores for event in sharded.step()] for _ in range(2)]
workers = children()
sharded.close()
assert [len(events) for events in got] == [4, 4], got
assert all(np.array_equal(a, b)
           for x, y in zip(expected, got) for a, b in zip(x, y))
assert len(workers) == 2, workers
assert not any(b"resource_tracker" in command for command in workers)
assert "multiprocessing.resource_tracker" not in sys.modules
assert children() == [], children()
print("ok")
"""


def shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


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
        sharded gateway's parent never loads a model, so nothing else
        warms its heap) — and warming touches no page."""
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


class TestShardedRingTransport:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_parity_over_the_ring_path(self, fresh_model, frame_generator,
                                       shards):
        """Sharded serving over shared-memory buffers stays bit-identical
        to the single-process fleet at every shard count — and actually
        used the buffers (shm transport, zero pipe fallbacks)."""
        single = make_single_fleet(fresh_model, frame_generator, streams=4)
        reference = collect_rounds(single, max_rounds=2)
        single = make_single_fleet(fresh_model, frame_generator, streams=4)
        with ShardedFleet.from_fleet(single, shards, infra=INFRA) as sharded:
            rounds = collect_rounds(sharded, max_rounds=2)
            stats = sharded.transport_stats()
        assert_rounds_identical(reference, rounds)
        assert stats["transport"] == "shm"
        assert stats["ring_bytes"] == DEFAULT_RING_BYTES
        assert stats["shm_messages"] > 0
        assert stats["pipe_fallbacks"] == 0

    def test_oversized_round_falls_back_to_the_pipe(self, fresh_model,
                                                    frame_generator,
                                                    monkeypatch):
        """A buffer too small for a round's payload is a latency knob,
        not a correctness cliff: the oversized message rides the pipe
        and scores stay bit-identical."""
        single = make_single_fleet(fresh_model, frame_generator, streams=3)
        frame_dim = single.slots[0].stream.batch(0).windows.shape[-1]
        batches = 2 + (1 << 16) // (4 * frame_dim * 8)  # > 64 KiB payload
        arrivals = {
            name: np.linspace(0.0, 1.0, batches * 4 * frame_dim)
            .reshape(batches, 4, frame_dim)
            for name in list(single.names)[:2]}
        expected = single.score_only(arrivals)
        single = make_single_fleet(fresh_model, frame_generator, streams=3)
        monkeypatch.setattr(sharded_module, "DEFAULT_RING_BYTES", 1 << 12)
        with ShardedFleet.from_fleet(single, 2, infra=INFRA) as sharded:
            got = sharded.score_only(arrivals)
            stats = sharded.transport_stats()
        assert set(got) == set(expected)
        for name in got:
            np.testing.assert_array_equal(got[name], expected[name])
        assert stats["transport"] == "shm"
        assert stats["pipe_fallbacks"] > 0

    def test_unguarded_script_shards_and_leaves_nothing_behind(self,
                                                               tmp_path):
        """A script with no ``__main__`` guard can shard (nothing
        re-imports it), starts no resource tracker, adds no /dev/shm
        entry and leaves no child process behind."""
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED_SCRIPT)
        root = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": root if not path else root + os.pathsep + path}
        before = shm_entries()
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["ok"]
        assert shm_entries() == before

    def test_killed_worker_is_reported_and_close_frees_every_fd(
            self, fresh_model, frame_generator):
        """SIGKILL one worker: the next call raises WorkerError naming
        its shard, and close() leaves this process exactly the
        descriptors it had before the fleet existed."""
        single = make_single_fleet(fresh_model, frame_generator, streams=4)
        fds_before = open_fds()
        sharded = ShardedFleet.from_fleet(single, 2, infra=INFRA)
        collect_rounds(sharded, max_rounds=1)
        victim = sharded._procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
        with pytest.raises(WorkerError) as raised:
            sharded.step()
        assert raised.value.shard == 1
        sharded.close()
        assert open_fds() == fds_before
