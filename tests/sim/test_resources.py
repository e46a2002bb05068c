"""Resource contention, CPU scaling, disk cost model."""

import pytest

from repro.sim import CPU, Disk, Environment, Interrupt, Resource


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_single_capacity_serialises_users():
    env = Environment()
    res = Resource(env, capacity=1)
    finish = []

    def user(tag):
        yield from res.use(10)
        finish.append((tag, env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert finish == [("a", 10.0), ("b", 20.0)]


def test_capacity_two_allows_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)
    finish = []

    def user(tag):
        yield from res.use(10)
        finish.append((tag, env.now))

    for tag in ("a", "b", "c"):
        env.process(user(tag))
    env.run()
    assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_fifo_ordering_of_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, delay):
        yield env.timeout(delay)
        yield from res.use(5)
        order.append(tag)

    env.process(user("first", 0))
    env.process(user("second", 1))
    env.process(user("third", 2))
    env.run()
    assert order == ["first", "second", "third"]


def _scheduled(env):
    return env.kernel_counters()["sim.kernel.events_scheduled"]


def test_idle_grant_schedules_no_event():
    env = Environment()
    cpu = CPU(env)
    granted = cpu.request()
    assert granted.processed and granted.ok
    assert _scheduled(env) == 0
    queued = cpu.request()
    assert not queued.triggered
    granted.release()
    # Handing the CPU to a waiter is a real grant event.
    assert queued.triggered and not queued.processed
    assert _scheduled(env) == 1


def test_idle_charge_pays_only_its_timeout():
    env = Environment()
    cpu = CPU(env)

    def charges():
        yield from cpu.compute(5)
        yield from cpu.compute(0)
        yield from cpu.compute(2)

    env.process(charges())
    env.run()
    # The start event and two service timeouts: no grant events, and no
    # completion event for a process nobody waits on.
    assert _scheduled(env) == 3
    assert env.now == 7.0
    assert cpu.in_use == 0


def test_contended_grants_stay_fifo():
    env = Environment()
    cpu = CPU(env)
    finish = []

    def user(tag, arrive, cost):
        yield env.timeout(arrive)
        yield from cpu.compute(cost)
        finish.append((tag, env.now))

    for tag, arrive, cost in [
        ("a", 0, 3), ("b", 0, 0), ("c", 1, 2), ("d", 5, 0), ("e", 5, 1),
    ]:
        env.process(user(tag, arrive, cost))
    env.run()
    assert finish == [
        ("a", 3.0), ("b", 3.0), ("c", 5.0), ("d", 5.0), ("e", 6.0),
    ]


def test_interrupt_during_an_idle_granted_hold_releases_at_interrupt_time():
    env = Environment()
    cpu = CPU(env)
    log = []

    def holder():
        try:
            yield from cpu.compute(10)
        except Interrupt:
            log.append(("interrupted", env.now))

    def next_user():
        yield env.timeout(1)
        yield from cpu.compute(2)
        log.append(("next", env.now))

    victim = env.process(holder())
    env.process(next_user())

    def crash():
        yield env.timeout(4)
        victim.interrupt("crash")

    env.process(crash())
    env.run()
    assert log == [("interrupted", 4.0), ("next", 6.0)]
    assert cpu.in_use == 0


def test_release_without_hold_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    req.release()
    with pytest.raises(RuntimeError):
        req.release()


def test_resource_released_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)

    def bad_user():
        req = res.request()
        yield req
        try:
            yield env.timeout(5)
            raise RuntimeError("fails while holding")
        finally:
            req.release()

    def good_user():
        yield env.timeout(1)
        yield from res.use(5)
        return env.now

    env.process(bad_user())
    p = env.process(good_user())
    with pytest.raises(RuntimeError, match="fails while holding"):
        env.run()
    # Continue the run; the good user should still get the resource.
    assert env.run(until=p) == 10.0


def test_cpu_speed_factor_scales_cost():
    env = Environment()
    fast = CPU(env, speed_factor=2.0)
    slow = CPU(env, speed_factor=0.5)
    times = {}

    def work(cpu, tag):
        yield from cpu.compute(10)
        times[tag] = env.now

    env.process(work(fast, "fast"))
    env.process(work(slow, "slow"))
    env.run()
    assert times["fast"] == 5.0
    assert times["slow"] == 20.0


def test_cpu_rejects_bad_speed():
    env = Environment()
    with pytest.raises(ValueError):
        CPU(env, speed_factor=0)


def test_disk_read_charges_access_plus_transfer():
    env = Environment()
    disk = Disk(env, access_ms=30, per_kb_ms=2)

    def reader():
        yield from disk.read(2048)
        return env.now

    p = env.process(reader())
    assert env.run(until=p) == 34.0  # 30 + 2 KB * 2 ms/KB


def test_disk_serialises_concurrent_reads():
    env = Environment()
    disk = Disk(env, access_ms=10, per_kb_ms=0)
    finish = []

    def reader(tag):
        yield from disk.read(0)
        finish.append((tag, env.now))

    env.process(reader(1))
    env.process(reader(2))
    env.run()
    assert finish == [(1, 10.0), (2, 20.0)]


def test_negative_sizes_rejected():
    env = Environment()
    disk = Disk(env)
    with pytest.raises(ValueError):
        list(disk.read(-1))
    res = Resource(env)
    with pytest.raises(ValueError):
        list(res.use(-1))
