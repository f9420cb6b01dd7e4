import numpy as np
import pytest

from repro.api import Deployment, Pipeline, ReproConfig
from repro.gateway import serve_in_thread
from repro.gnn.pipeline import MissionGNNModel
from repro.serving import DeploymentFleet

from perfbench.loadgen import MuxClient

STREAMS = 5
NAMES = [f"cam-{index}" for index in range(STREAMS)]


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline.from_config(ReproConfig())


@pytest.fixture()
def windows(pipeline):
    streams = [pipeline.stream("Stealing", None, windows_per_step=2,
                               seed=70 + index, steps_before_shift=64,
                               steps_after_shift=0)
               for index in range(STREAMS)]
    cache = {}

    def request(stream, index):
        if (stream, index) not in cache:
            cache[stream, index] = streams[stream].batch(index % 64).windows
        return cache[stream, index]

    return request


@pytest.fixture()
def gateway(pipeline):
    """An untrained (so instant) model behind an in-thread gateway."""
    model = MissionGNNModel([pipeline.generate_kg("Stealing")],
                            pipeline.embedding_model, pipeline.model_config())
    model.eval()
    fleet = DeploymentFleet()
    for index, name in enumerate(NAMES):
        fleet.add(name, Deployment(model, mission="Stealing", adaptive=False),
                  pipeline.stream("Stealing", None, seed=index))
    with fleet, serve_in_thread(fleet) as handle:
        yield handle, model


def _by_stream(replies):
    out = {}
    for reply in replies:
        out.setdefault(reply.stream, []).append(reply)
    return out


def test_closed_loop_sends_fixed_counts_in_per_stream_order(gateway, windows):
    handle, model = gateway
    with MuxClient(handle.address, NAMES, windows, connections=2) as client:
        client.attach_all()
        boundaries = []
        phase = client.closed_loop(warm=3, measured=10, cool=2,
                                   on_boundary=lambda: boundaries.append(1))
    assert len(boundaries) == 2
    assert phase.attempted == STREAMS * 15 and phase.failed == 0
    assert phase.measured == STREAMS * 10 and phase.wall > 0
    for stream, replies in _by_stream(phase.replies).items():
        # Ids matched the right request: FIFO per stream, and the scores
        # are the ones this stream's windows produce.
        assert [r.index for r in replies] == list(range(15))
        assert [r.step for r in replies] == list(range(15))
        for reply in replies:
            assert np.array_equal(
                reply.scores, model.anomaly_scores(windows(stream, reply.index)))


def test_phases_continue_each_streams_sequence(gateway, windows):
    handle, _model = gateway
    with MuxClient(handle.address, NAMES, windows, connections=2) as client:
        client.attach_all()
        solo = client.solo(2 * STREAMS + 1)
        closed = client.closed_loop(warm=0, measured=4)
        paced = client.paced(rate=400.0, requests=3 * STREAMS)
        stats = client.stats()
        assert client.next_index == [2 + 4 + 3 + (s == 0) for s in range(STREAMS)]
    assert solo.attempted == 2 * STREAMS + 1 and solo.failed == 0
    assert [r.stream for r in solo.replies][:STREAMS + 1] == [0, 1, 2, 3, 4, 0]
    assert all(r.latency > 0 and r.received > 0 for r in solo.replies)
    assert closed.attempted == 4 * STREAMS and closed.wall > 0
    assert paced.attempted == 3 * STREAMS and len(paced.lateness) == 3 * STREAMS
    assert paced.wall >= (3 * STREAMS - 1) / 400.0
    everything = solo.replies + closed.replies + paced.replies
    for stream, replies in _by_stream(everything).items():
        assert [r.step for r in replies] == list(range(len(replies)))
    served = stats["metrics"]["counters"]["gateway.requests.ingest"]
    assert served == len(everything)


def test_one_connection_still_multiplexes_every_stream(gateway, windows):
    handle, _model = gateway
    with MuxClient(handle.address, NAMES, windows, connections=1) as client:
        client.attach_all()
        phase = client.closed_loop(warm=1, measured=3)
    assert phase.attempted == STREAMS * 4 and phase.failed == 0


def test_refused_requests_count_as_failed(gateway, windows):
    handle, _model = gateway
    with MuxClient(handle.address, NAMES, windows, connections=2) as client:
        # Never attached: every ingest is answered with a typed error.
        phase = client.solo(STREAMS)
    assert phase.failed == STREAMS
    assert {reply.error for reply in phase.replies} == {"not_attached"}
