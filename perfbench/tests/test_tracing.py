"""Span arithmetic, tail selection and the unit clock, on hand-made inputs."""

import pytest

from tracing import Patcher, Tracer, UnitClock, layer_metrics, self_times, tail_percentile


def span(name, start, end, parent=None, unit=None, extra=None):
    return [name, start, end, parent, unit, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 5.0, parent=0),       # overlaps a by one second
        span("c", 9.0, 12.0, parent=0),      # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_times_sum_to_root_duration():
    spans = [span("root", 0.0, 8.0), span("a", 0.5, 7.5, parent=0),
             span("b", 1.0, 2.0, parent=1), span("c", 2.0, 7.0, parent=1)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (19, None),
    (20, (50.0, 10)),        # exactly ten samples above the median
    (40, (75.0, 30)),
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
    (10000, (99.9, 9990)),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))           # order must not matter
    assert tail_percentile(values) == expected


def test_tail_value_is_a_measured_sample():
    values = [0.1 * i for i in range(1, 31)]
    p, value = tail_percentile(values)
    assert p == 50.0 and value in values
    assert sum(v > value for v in values) >= 10


def test_patcher_restores_in_reverse_order():
    class Box:
        x = "orig"
    patcher = Patcher()
    patcher.set(Box, "x", "first")
    mark = patcher.mark()
    patcher.set(Box, "x", "second")
    patcher.restore(mark)
    assert Box.x == "first"
    patcher.restore()
    assert Box.x == "orig"


def test_clock_runs_phases_in_order_and_calls_hooks_between_units():
    seen = []
    tracer = Tracer()
    clock = UnitClock(tracer, [("warmup", "units", 2, lambda: seen.append("warmup")),
                               ("timed", "units", 3, lambda: seen.append("timed"))])
    clock.start()
    flags = [clock.unit_done() for _ in range(5)]
    assert flags == [True, True, True, True, False]
    assert seen == ["warmup", "timed"]
    assert [p for p, _, _ in clock.units] == ["warmup"] * 2 + ["timed"] * 3
    assert tracer.stack == [] and tracer.unit is None


def test_seconds_phase_stops_before_a_unit_would_overrun():
    tracer = Tracer()
    clock = UnitClock(tracer, [("timed", "seconds", 0.0, None)], min_units=2)
    clock.start()
    assert clock.unit_done() is True          # fewer than min_units so far
    assert clock.unit_done() is False


def test_layer_metrics_per_unit_self_time_and_rates():
    tracer = Tracer()
    clock = UnitClock(tracer, [("traced", "units", 2, None)])
    clock.units = [("traced", 0.0, 1.0), ("traced", 1.0, 2.0)]
    k3 = {"flop": 4e9, "cols_bytes": 2 ** 20}
    tracer.spans = [
        span("unit", 0.0, 1.0, unit=0),
        span("tensor.conv2d_k3.fwd", 0.1, 0.3, parent=0, unit=0, extra=dict(k3)),
        span("tensor.backward", 0.4, 0.9, parent=0, unit=0),
        span("tensor.conv2d_k3.bwd", 0.5, 0.8, parent=2, unit=0),
        span("unit", 1.0, 2.0, unit=1),
        span("tensor.conv2d_k3.fwd", 1.1, 1.3, parent=4, unit=1, extra=dict(k3)),
        span("training.build_patch_set", -2.0, -0.5),
    ]
    m = layer_metrics(tracer, clock, 0.0)
    assert m["tensor.conv2d_k3.fwd_ms"] == pytest.approx(200.0)
    assert m["tensor.conv2d_k3.bwd_ms"] == pytest.approx(150.0)
    assert m["tensor.backward.self_ms"] == pytest.approx(100.0)
    assert m["tensor.conv2d_k3.calls"] == 1.0
    assert m["tensor.conv2d_k3.gflop_per_s"] == pytest.approx(8e9 / 0.4 / 1e9)
    assert m["tensor.conv2d_k3.cols_mb"] == pytest.approx(1.0)
    assert m["training.build_patch_set.s"] == pytest.approx(1.5)
    assert m["trace.coverage"] == pytest.approx((0.2 + 0.5 + 0.2) / 2.0)
    assert m["tensor.conv2d_k1.fwd_ms"] == 0.0
