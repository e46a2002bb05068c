"""Kernel clock/queue behaviour.

The queue contract is ``(time, eid)`` order: events run by time, and
simultaneous events run in scheduling (FIFO) order.  The kernel has two
loops over its one heap — the unmonitored hot loop behind ``run()`` and
the monitored ``step()`` loop — and both must honour the contract, so
several tests here drive both and demand identical results.
"""

import random

import pytest

from repro.analysis.determinism import run_digest
from repro.sim import Environment, SimulationError
from repro.sim import kernel
from repro.sim.kernel import KernelMonitor
from repro.workloads.scenarios import SCENARIOS


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 5.0
    assert env.now == 5.0


def test_run_until_time_stops_at_horizon():
    env = Environment()
    seen = []

    def proc():
        for _ in range(10):
            yield env.timeout(3)
            seen.append(env.now)

    env.process(proc())
    env.run(until=10)
    assert env.now == 10.0
    assert seen == [3.0, 6.0, 9.0]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_drains_queue_when_no_until():
    env = Environment()

    def proc():
        yield env.timeout(7)

    env.process(proc())
    env.run()
    assert env.now == 7.0
    assert env.peek() == float("inf")


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(5, "b"))
    env.process(waiter(1, "a"))
    env.process(waiter(9, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_fifo():
    env = Environment()
    order = []

    def waiter(tag):
        yield env.timeout(4)
        order.append(tag)

    for tag in range(6):
        env.process(waiter(tag))
    env.run()
    assert order == list(range(6))


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()

    def proc():
        yield never

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_nested_process_composition():
    env = Environment()

    def inner():
        yield env.timeout(3)
        return "inner-done"

    def outer():
        result = yield env.process(inner())
        yield env.timeout(2)
        return result + "/outer-done"

    p = env.process(outer())
    assert env.run(until=p) == "inner-done/outer-done"
    assert env.now == 5.0


def test_failed_process_raises_at_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_run_until_failed_event_raises_and_does_not_double_report():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("gone")

    p = env.process(bad())
    with pytest.raises(KeyError):
        env.run(until=p)


def test_two_environments_are_independent():
    env1, env2 = Environment(), Environment()

    def proc(env):
        yield env.timeout(4)

    env1.process(proc(env1))
    env1.run()
    assert env1.now == 4.0
    assert env2.now == 0.0


# ----------------------------------------------------------------------
# The (time, eid) contract under random and edge-case schedules
# ----------------------------------------------------------------------
def _logged_timeout(env, log, tag, delay):
    """A timeout that appends ``(now, tag)`` to ``log`` when it runs."""
    env.timeout(delay).callbacks.append(lambda _e: log.append((env.now, tag)))


@pytest.mark.parametrize("seed", range(10))
def test_random_schedule_runs_in_time_eid_order(seed):
    """A bursty random schedule (immediate, sub-ms, near and far
    future) with interleaved ``step()`` pops, then a ``run()`` drain:
    every event runs in the order of a sorted ``(time, eid)`` reference."""
    rng = random.Random(seed)
    env = Environment()
    ran = []
    pending = []
    expected = []
    for eid in range(400):
        delay = rng.choice(
            [0.0, rng.random(), rng.random() * 250, rng.random() * 3_000,
             rng.random() * 900_000]
        )
        _logged_timeout(env, ran, eid, delay)
        pending.append((env.now + delay, eid))
        assert env.peek() == min(pending)[0]
        if rng.random() < 0.3:
            head = min(pending)
            pending.remove(head)
            expected.append(head)
            env.step()
            assert env.now == head[0]
    expected.extend(sorted(pending))
    env.run()
    assert ran == expected
    assert env.peek() == float("inf")


@pytest.mark.parametrize("seed", range(5))
def test_random_schedule_peeks_the_time_eid_head(seed):
    """``peek()`` reports the sorted ``(time, eid)`` reference head after
    every push and after every ``step()``."""
    rng = random.Random(1000 + seed)
    env = Environment()
    ran = []
    pending = []
    for eid in range(300):
        delay = rng.random() * rng.choice([1.0, 100.0, 500_000.0])
        _logged_timeout(env, ran, eid, delay)
        pending.append((env.now + delay, eid))
        assert env.peek() == min(pending)[0]
        if rng.random() < 0.4:
            head = min(pending)
            pending.remove(head)
            env.step()
            assert ran[-1] == head
            assert env.peek() == (min(pending)[0] if pending else float("inf"))


@pytest.mark.parametrize("monitored", [False, True])
def test_same_time_entries_pop_fifo(monitored):
    env = Environment()
    if monitored:
        env.monitor = KernelMonitor()
    ran = []
    for tag in range(20):
        _logged_timeout(env, ran, tag, 7.5)
    env.run()
    assert ran == [(7.5, tag) for tag in range(20)]


def _plain_and_monitored(build):
    """Run ``build(env)`` without and with a passive monitor attached;
    return both digests (the unmonitored loop vs the ``step()`` loop)."""
    digests = []
    for monitored in (False, True):
        env = Environment(seed=11)
        if monitored:
            env.monitor = KernelMonitor()
        build(env)
        digests.append(run_digest(env))
    return digests


def test_zero_delay_storm_matches_monitored_run():
    def build(env):
        hits = env.stats.counter("sim.test.hits")

        def proc():
            for _ in range(50):
                yield env.timeout(0.0)
                hits.increment()

        for _ in range(20):
            env.process(proc())
        env.run()
        assert env.now == 0.0
        assert hits.value == 1_000

    plain, monitored = _plain_and_monitored(build)
    assert plain == monitored


def test_run_until_float_parks_the_clock_between_events():
    env = Environment()
    seen = []

    def proc():
        for _ in range(40):
            yield env.timeout(97.0)
            seen.append(env.now)

    env.process(proc())
    env.run(until=1000.5)
    assert env.now == 1000.5
    # Scheduling resumes correctly from the parked clock.
    env.process(proc())
    env.run(until=2000.25)
    assert env.now == 2000.25
    assert seen == sorted(
        [97.0 * k for k in range(1, 21)]
        + [1000.5 + 97.0 * k for k in range(1, 11)]
    )


def test_callback_schedules_ahead_of_pending_entries():
    """A callback schedules work that must run before an entry already
    queued (10.5 pushed at 10.0 vs a straggler pending at 10.2)."""

    def build(env):
        order = env.stats.counter("sim.test.ordered")
        times = []

        def spawner():
            yield env.timeout(10.0)
            env.process(child())
            yield env.timeout(100.0)

        def child():
            yield env.timeout(0.5)
            times.append(env.now)
            order.increment()

        def straggler():
            yield env.timeout(10.2)
            times.append(env.now)

        env.process(spawner())
        env.process(straggler())
        env.run()
        assert times == [10.2, 10.5]

    plain, monitored = _plain_and_monitored(build)
    assert plain == monitored


@pytest.mark.parametrize("monitored", [False, True])
def test_run_until_event_stops_with_events_queued_and_resumes(monitored):
    env = Environment()
    if monitored:
        env.monitor = KernelMonitor()
    ticks = []

    def ticker():
        for _ in range(4):
            yield env.timeout(3.0)
            ticks.append(env.now)

    def short():
        yield env.timeout(5.0)
        return "short-done"

    env.process(ticker())
    assert env.run(until=env.process(short())) == "short-done"
    # Stopped right after the awaited event, with later events queued.
    assert env.now == 5.0
    assert ticks == [3.0]
    assert env.peek() == 6.0
    env.run()
    assert ticks == [3.0, 6.0, 9.0, 12.0]
    assert env.now == 12.0


def test_perturbed_cohort_is_a_permutation_of_the_same_times():
    """A perturbation seed reshuffles same-timestamp cohorts and nothing
    else: the same times in the same order, each cohort a permutation
    of the FIFO one, and the same seed replays the same shuffle."""

    def drain(perturb_seed):
        env = Environment(perturb_seed=perturb_seed)
        ran = []
        for tag in range(30):
            _logged_timeout(env, ran, tag, 5.0 if tag % 2 else 9.0)
        env.run()
        return ran

    plain = drain(None)
    assert plain == sorted(plain)
    for seed in (1, 2, 3):
        shuffled = drain(seed)
        assert shuffled == drain(seed)
        assert [t for t, _ in shuffled] == [t for t, _ in plain]
        assert sorted(shuffled) == plain
    assert any(drain(seed) != plain for seed in (1, 2, 3))


def test_kernel_counters_stay_out_of_stats():
    env = Environment()

    def proc():
        yield env.timeout(0.0)
        yield env.timeout(300_000.0)

    env.process(proc())
    env.timeout(900_000.0)
    env.run(until=400_000.0)
    counters = env.kernel_counters()
    assert set(counters) == {
        "sim.kernel.events_scheduled",
        "sim.kernel.events_processed",
    }
    assert counters["sim.kernel.events_scheduled"] > 0
    assert (
        counters["sim.kernel.events_processed"]
        == counters["sim.kernel.events_scheduled"] - 1
    )
    # Opt-in: absent until published, so they never enter a digest.
    assert "sim.kernel.events_scheduled" not in env.stats.counters()
    env.publish_kernel_stats()
    assert (
        env.stats.counter("sim.kernel.events_scheduled").value
        == counters["sim.kernel.events_scheduled"]
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_passive_monitor_schedules_the_same_events(name, monkeypatch):
    """The idle-grant and unobserved-exit shortcuts skip the same events
    whether or not a monitor is attached, so event ids (and with them
    perturbed replays) do not depend on the monitor."""
    plain = SCENARIOS[name](0)
    monkeypatch.setattr(kernel, "DEFAULT_MONITOR_FACTORY", lambda env: KernelMonitor())
    monitored = SCENARIOS[name](0)
    assert monitored.monitor is not None
    assert (
        monitored.kernel_counters()["sim.kernel.events_scheduled"]
        == plain.kernel_counters()["sim.kernel.events_scheduled"]
    )
