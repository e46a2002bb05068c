"""Process semantics: composition, interrupts, error surfacing."""

import pytest

from repro.sim import Environment, Interrupt


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return {"answer": 42}

    p = env.process(proc())
    assert env.run(until=p) == {"answer": 42}


def test_process_is_alive_until_done():
    env = Environment()

    def proc():
        yield env.timeout(10)

    p = env.process(proc())
    env.run(until=5)
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42  # type: ignore[misc]

    env.process(proc())
    with pytest.raises(RuntimeError, match="may only yield Event"):
        env.run()


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("slept-full")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(3)
        target.interrupt("server crashed")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupted", 3.0, "server crashed")]


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            yield env.timeout(5)  # retry path
            return "recovered"
        return "no-interrupt"

    def interrupter(target):
        yield env.timeout(2)
        target.interrupt()

    p = env.process(sleeper())
    env.process(interrupter(p))
    assert env.run(until=p) == "recovered"
    assert env.now == 7.0


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_stale_timeout_does_not_resume_interrupted_process():
    env = Environment()
    resumptions = []

    def sleeper():
        try:
            yield env.timeout(10)
            resumptions.append("timeout")
        except Interrupt:
            resumptions.append("interrupt")
            yield env.timeout(50)
            resumptions.append("after")

    def interrupter(target):
        yield env.timeout(1)
        target.interrupt()

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    # The original timeout at t=10 must not re-enter the process.
    assert resumptions == ["interrupt", "after"]


def test_exception_inside_process_propagates_to_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise LookupError("no such name")

    def waiter():
        try:
            yield env.process(bad())
        except LookupError:
            return "caught"
        return "missed"

    p = env.process(waiter())
    assert env.run(until=p) == "caught"


def test_joining_a_process_that_finished_this_instant_gets_its_value():
    env = Environment()

    def quick():
        yield env.timeout(5)
        return "done"

    finished = env.process(quick())

    def joiner():
        yield env.timeout(5)  # fires just after quick's, same instant
        assert finished.processed
        value = yield finished
        return env.now, value

    assert env.run(until=env.process(joiner())) == (5.0, "done")


def test_unobserved_exit_schedules_no_completion_event():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return 42

    p = env.process(quick())
    env.run()
    assert p.processed and p.value == 42
    # Start and timeout only: nobody waited, so no completion event.
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 2


def test_unobserved_failure_in_the_first_step_still_raises():
    env = Environment()

    def bad():
        raise LookupError("nobody listens")
        yield  # pragma: no cover - makes bad() a generator

    env.process(bad())
    with pytest.raises(LookupError, match="nobody listens"):
        env.run()


def test_many_concurrent_processes():
    env = Environment()
    done = []

    def proc(i):
        yield env.timeout(i % 7)
        done.append(i)

    for i in range(200):
        env.process(proc(i))
    env.run()
    assert sorted(done) == list(range(200))
