"""Tests for the benchmark's own rules; run with ``python3 -m pytest perfbench``.

None of these builds a testbed: they pin the percentile rule, the
ledger's self-time arithmetic, the staleness computation and the
strict output.
"""

import json
import math

import pytest

from common import (
    Op,
    backlog_grows,
    checked_p99,
    percentile,
    run_digest,
    staleness,
    strict_dumps,
    tail_percentile,
)
from ledger import OK, PARENT, SELF_S, Ledger


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_p99_refuses_too_few_samples():
    with pytest.raises(ValueError):
        checked_p99([1.0] * 999)
    values = list(range(1, 1001))
    assert checked_p99(values) == 990


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert percentile([7.0], 99.0) == 7.0


# ----------------------------------------------------------------------
# Self time for nested generator wrappers
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_generator_self_time_subtracts_children():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def inner():
        clock.now += 2.0  # inner's first resume
        yield "inner-wait"
        clock.now += 3.0  # inner's second resume
        return "leaf"

    def outer():
        clock.now += 1.0
        got = yield from ledger.drive(inner(), "inner", "b")
        clock.now += 4.0
        yield "outer-wait"
        clock.now += 0.5
        return got

    gen = ledger.drive(outer(), "outer", "a")
    assert next(gen) == "inner-wait"
    assert gen.send(None) == "outer-wait"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "leaf"
    assert ledger.self_s["b"] == pytest.approx(5.0)
    assert ledger.self_s["a"] == pytest.approx(5.5)
    outer_span, inner_span = ledger.spans
    assert outer_span[SELF_S] == pytest.approx(5.5)
    assert inner_span[SELF_S] == pytest.approx(5.0)
    # The inner span's parent is the outer span; layers add up to the total.
    assert inner_span[PARENT] == 0 and outer_span[PARENT] == -1
    layers = ledger.layer_self_s(total_s=clock.now + 1.5)
    assert layers["sim"] == pytest.approx(1.5)
    assert sum(layers.values()) == pytest.approx(clock.now + 1.5)


def test_wrapper_forwards_exceptions_into_the_generator():
    ledger = Ledger(clock=FakeClock())

    def body():
        try:
            yield "wait"
        except KeyError:
            return "recovered"

    gen = ledger.drive(body(), "body", "x")
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("boom"))
    assert stop.value.value == "recovered"
    assert ledger.spans[0][OK] is True


def test_plain_function_wrapper_times_and_restores():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    class Thing:
        def work(self, n):
            clock.now += n
            return n * 2

    ledger.wrap(Thing, "work", "serial", generator=False)
    assert Thing().work(3) == 6
    assert ledger.self_s["serial"] == pytest.approx(3.0)
    assert ledger.calls["Thing.work"] == 1
    ledger.remove()
    assert "ledger" not in repr(Thing.__dict__["work"])


# ----------------------------------------------------------------------
# Staleness on a hand-built sequence
# ----------------------------------------------------------------------
def test_staleness_hand_built():
    writes = [("k", 100.0, "v1"), ("k", 200.0, "v2"), ("j", 150.0, "w1")]
    reads = [
        ("k", 90.0, "v0"),   # before any ack: not judged
        ("k", 110.0, "v0"),  # stale: v1 acked at 100
        ("k", 130.0, "v1"),  # v1 visible 30 ms after its ack
        ("k", 210.0, "v1"),  # stale: v2 acked at 200
        ("k", 260.0, "v2"),  # v2 visible 60 ms after its ack
        ("j", 150.0, "w1"),  # visible at once
    ]
    lags, stale = staleness(writes, reads)
    assert sorted(lags) == [0.0, 30.0, 60.0]
    assert stale == 2


def test_staleness_counts_a_newer_value_as_seeing_the_write():
    writes = [("k", 100.0, "v1"), ("k", 101.0, "v2")]
    reads = [("k", 150.0, "v2")]
    lags, stale = staleness(writes, reads)
    assert sorted(lags) == [49.0, 50.0]
    assert stale == 0


# ----------------------------------------------------------------------
# Strict output
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_strict_dumps_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        strict_dumps({"metrics": {"x": {"value": bad, "unit": "ms"}}})


def test_strict_dumps_round_trips_finite_values():
    text = strict_dumps({"b": 1.25, "a": [1, 2]})
    assert json.loads(text) == {"a": [1, 2], "b": 1.25}


# ----------------------------------------------------------------------
# Digest and backlog health
# ----------------------------------------------------------------------
def test_digest_covers_arrival_latency_and_outcome():
    ops = [Op(0, "read", 1.0, "k", 5.0, "ok"), Op(1, "read", 2.0, "k", 6.0, "ok")]
    same = [Op(0, "read", 1.0, "x", 5.0, "ok"), Op(1, "read", 2.0, "y", 6.0, "ok")]
    assert run_digest(ops) == run_digest(same)
    for changed in (Op(1, "read", 2.5, "k", 6.0, "ok"), Op(1, "read", 2.0, "k", 6.1, "ok"),
                    Op(1, "read", 2.0, "k", 6.0, "TransportTimeout")):
        assert run_digest([ops[0], changed]) != run_digest(ops)


def test_backlog_growth_detected():
    steady = [(float(t), t % 3) for t in range(100)]
    growing = [(float(t), t // 5) for t in range(100)]
    assert not backlog_grows(steady)
    assert backlog_grows(growing)
