from perfbench import aa

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "capacity_wps", "unit": "windows/s", "better": "higher",
     "bound": 0.10},
]}


def _runs(setups, capacities):
    return [{"setup_s": {"value": s}, "capacity_wps": {"value": c}}
            for s, c in zip(setups, capacities)]


def _report(a, b, counters=None, incorrect=0):
    lines = []
    failures = aa.report(SPEC, ({"w": a}, {"w": b}),
                         {"w": counters or {}}, incorrect, out=lines.append)
    return failures, lines


def test_agreeing_sets_pass_and_say_how_close_they_were():
    a = _runs([1.0, 1.1, 0.9], [100.0, 102.0, 98.0])
    b = _runs([1.0, 1.2, 1.0], [97.0, 99.0, 93.0])
    failures, lines = _report(a, b, {"gateway.requests": {416}})
    assert failures == []
    capacity = next(line for line in lines if "| capacity_wps |" in line)
    assert "| 100 | 97 | +3.0% |" in capacity and capacity.endswith("| ok |")
    assert "count w gateway.requests: 416 in every run" in lines
    assert lines[-1].startswith("\nA/A passed")


def test_a_worse_second_median_fails_in_the_metrics_direction():
    a = _runs([1.0] * 3, [100.0] * 3)
    slower, _ = _report(a, _runs([1.0] * 3, [88.0] * 3))
    faster, lines = _report(a, _runs([1.0] * 3, [108.0] * 3))
    assert slower == ["w/capacity_wps"]
    assert faster == []
    assert any(line.endswith("| ok (> bound/2) |") for line in lines)


def test_spreads_count_only_at_the_drivers_sample_size():
    wide = [100.0, 60.0, 140.0, 100.0, 100.0]
    few, _ = _report(_runs([1.0] * 5, wide), _runs([1.0] * 5, wide))
    many, _ = _report(_runs([1.0] * 10, wide * 2), _runs([1.0] * 10, wide * 2))
    assert few == []
    assert many == ["w/capacity_wps"]
    # setup_s is held to its bound on the medians only.
    setups = [1.0, 0.5, 1.5, 1.0, 1.0] * 2
    assert _report(_runs(setups, [100.0] * 10),
                   _runs(setups, [100.0] * 10))[0] == []


def test_counters_that_differ_and_incorrect_runs_fail():
    a = _runs([1.0] * 3, [100.0] * 3)
    failures, lines = _report(a, a, {"adapt.updates": {17, 19}}, incorrect=2)
    assert failures == ["w/adapt.updates", "2 incorrect run(s)"]
    assert "count w adapt.updates: DIFFERS [17, 19]" in lines
