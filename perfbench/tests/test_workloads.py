import dataclasses

import numpy as np
import pytest

from perfbench import workloads


@pytest.fixture(scope="module")
def pipeline():
    return workloads.make_pipeline(workloads.WORKLOADS["static_small"])


def _all(source, workload, steps):
    return [source.request(stream, index)
            for stream in range(workload.streams) for index in range(steps)]


def test_static_windows_are_a_function_of_the_seed(pipeline):
    workload = dataclasses.replace(workloads.WORKLOADS["durable"],
                                   streams=3, pool=4)
    first = workloads.WindowSource(pipeline, workload, seed=11, steps=9)
    again = workloads.WindowSource(pipeline, workload, seed=11, steps=9)
    other = workloads.WindowSource(pipeline, workload, seed=12, steps=9)
    for a, b in zip(_all(first, workload, 9), _all(again, workload, 9)):
        assert np.array_equal(a, b)
    assert not np.array_equal(first.request(0, 0), other.request(0, 0))
    assert first.request(0, 0).shape == (workload.windows, 8, 192)
    # The pool cycles: request 5 of a 4-entry pool is request 1 again.
    assert first.request(2, 5) is first.request(2, 1)
    assert not np.array_equal(first.request(0, 1), first.request(1, 1))


def test_adaptive_seed_deals_one_fixed_bank_out_to_the_streams(pipeline):
    workload = dataclasses.replace(workloads.WORKLOADS["adaptive_shift"],
                                   streams=4, windows=2)
    steps = workloads.SHIFT_EVERY + 2
    banks = {}
    for seed in (1, 2, 3, 4):
        source = workloads.WindowSource(pipeline, workload, seed, steps)
        again = workloads.WindowSource(pipeline, workload, seed, steps)
        for a, b in zip(_all(source, workload, steps),
                        _all(again, workload, steps)):
            assert np.array_equal(a, b)
        banks[seed] = [
            np.stack([source.request(stream, index) for index in range(steps)])
            for stream in range(workload.streams)]
    digests = {seed: sorted(bank.tobytes() for bank in sequences)
               for seed, sequences in banks.items()}
    # Same multiset of sequences whatever the seed (so the same number of
    # adaptations), dealt only among streams of the same mission ...
    assert all(digest == digests[1] for digest in digests.values())
    for sequences in banks.values():
        for stream in (0, 2):
            assert any(np.array_equal(sequences[stream], banks[1][other])
                       for other in (0, 2))
    # ... and some seed deals them differently.
    assert any(not np.array_equal(banks[seed][0], banks[1][0])
               for seed in (2, 3, 4))


def test_sizes_are_fixed_by_seconds_and_scale_with_them():
    for workload in workloads.WORKLOADS.values():
        sizes = workload.sizes(10)
        assert sizes == workload.sizes(10)
        longer = workload.sizes(20)
        assert longer.measured >= 2 * sizes.measured - 1
        assert sizes.steps >= sizes.blocks * (
            sizes.warm + sizes.measured + sizes.cool)
        assert workload.stream_names()[1] == "robbery-1"
        assert (sizes.blocks == 1) == workload.adaptive
