"""Generator processes: timeouts, joins, interrupts, combinators."""

import pytest

from repro.sim.errors import Interrupt, ProcessAlreadyFinished
from repro.sim.process import AllOf, AnyOf, Completion, Timeout, sleep


def test_timeout_resumes_after_delay(kernel):
    log = []

    def body():
        log.append(("start", kernel.now))
        yield Timeout(1.5)
        log.append(("after", kernel.now))

    kernel.spawn(body())
    kernel.run()
    assert log == [("start", 0.0), ("after", 1.5)]


def test_sleep_alias(kernel):
    times = []

    def body():
        yield sleep(0.5)
        times.append(kernel.now)

    kernel.spawn(body())
    kernel.run()
    assert times == [0.5]


def test_timeout_rejects_negative_delay():
    with pytest.raises(ValueError):
        Timeout(-1)


def test_process_return_value_via_join(kernel):
    def worker():
        yield Timeout(1.0)
        return 42

    def parent():
        result = yield kernel.spawn(worker())
        results.append(result)

    results = []
    kernel.spawn(parent())
    kernel.run()
    assert results == [42]


def test_join_already_finished_process(kernel):
    def worker():
        yield Timeout(0.1)
        return "early"

    worker_process = kernel.spawn(worker())
    kernel.run()
    assert worker_process.done

    def late_parent():
        value = yield worker_process
        seen.append(value)

    seen = []
    kernel.spawn(late_parent())
    kernel.run()
    assert seen == ["early"]


def test_completion_wakes_waiter_with_value(kernel):
    completion = Completion()
    seen = []

    def waiter():
        value = yield completion
        seen.append((kernel.now, value))

    kernel.spawn(waiter())
    kernel.call_in(2.0, lambda: completion.succeed("payload"))
    kernel.run()
    assert seen == [(2.0, "payload")]


def test_completion_failure_raises_in_waiter(kernel):
    completion = Completion()
    caught = []

    def waiter():
        try:
            yield completion
        except ValueError as error:
            caught.append(str(error))

    kernel.spawn(waiter())
    kernel.call_in(1.0, lambda: completion.fail(ValueError("bad")))
    kernel.run()
    assert caught == ["bad"]


def test_uncaught_process_exception_propagates(kernel):
    def bad():
        yield Timeout(0.5)
        raise RuntimeError("exploded")

    process = kernel.spawn(bad())
    with pytest.raises(RuntimeError, match="exploded") as raised:
        kernel.run()
    assert process.done
    assert raised.value is process.exception


def test_joined_process_exception_delivered_to_parent(kernel):
    def bad():
        yield Timeout(0.5)
        raise RuntimeError("handled")

    caught = []

    def parent():
        try:
            yield kernel.spawn(bad())
        except RuntimeError as error:
            caught.append(str(error))

    kernel.spawn(parent())
    kernel.run()
    assert caught == ["handled"]


def test_interrupt_raises_inside_process(kernel):
    log = []

    def body():
        try:
            yield Timeout(10.0)
        except Interrupt as interrupt:
            log.append(("interrupted", kernel.now, interrupt.cause))

    process = kernel.spawn(body())
    kernel.call_in(1.0, lambda: process.interrupt("shutdown"))
    kernel.run()
    assert log == [("interrupted", 1.0, "shutdown")]


def test_uncaught_interrupt_terminates_quietly(kernel):
    def body():
        yield Timeout(10.0)

    process = kernel.spawn(body())
    kernel.call_in(1.0, lambda: process.interrupt("stop"))
    kernel.run()
    assert process.done
    assert process.exception is None


def test_interrupt_finished_process_raises(kernel):
    def body():
        yield Timeout(0.1)

    process = kernel.spawn(body())
    kernel.run()
    with pytest.raises(ProcessAlreadyFinished):
        process.interrupt()


def test_stale_wakeup_after_interrupt_is_ignored(kernel):
    log = []

    def body():
        try:
            yield Timeout(2.0)
            log.append("timeout-fired")
        except Interrupt:
            yield Timeout(5.0)  # keep living past the stale timeout
            log.append("survived")

    process = kernel.spawn(body())
    kernel.call_in(1.0, lambda: process.interrupt())
    kernel.run()
    assert log == ["survived"]


def test_yielding_non_waitable_fails_process(kernel):
    def body():
        yield 42

    process = kernel.spawn(body())
    with pytest.raises(TypeError, match="not a Waitable") as raised:
        kernel.run()
    assert raised.value is process.exception


def test_anyof_returns_first_winner(kernel):
    results = []

    def body():
        winner = yield AnyOf([Timeout(3.0), Timeout(1.0), Timeout(2.0)])
        results.append((kernel.now, winner))

    kernel.spawn(body())
    kernel.run_until(10.0)
    assert results == [(1.0, (1, 1.0))]


def test_anyof_requires_waitables():
    with pytest.raises(ValueError):
        AnyOf([])


def test_allof_collects_all_values(kernel):
    results = []

    def body():
        values = yield AllOf([Timeout(1.0), Timeout(2.0)])
        results.append((kernel.now, values))

    kernel.spawn(body())
    kernel.run_until(10.0)
    assert results == [(2.0, [1.0, 2.0])]


def test_allof_empty_completes_immediately(kernel):
    results = []

    def body():
        values = yield AllOf([])
        results.append(values)

    kernel.spawn(body())
    kernel.run_until(1.0)
    assert results == [[]]


def test_allof_propagates_first_failure(kernel):
    completion = Completion()
    caught = []

    def body():
        try:
            yield AllOf([Timeout(5.0), completion])
        except KeyError as error:
            caught.append(kernel.now)

    kernel.spawn(body())
    kernel.call_in(1.0, lambda: completion.fail(KeyError("broken")))
    kernel.run_until(10.0)
    assert caught == [1.0]


def test_process_repr_shows_state(kernel):
    def body():
        yield Timeout(1.0)

    process = kernel.spawn(body(), name="worker")
    assert "alive" in repr(process)
    kernel.run()
    assert "done" in repr(process)


def test_spawn_is_deferred_not_reentrant(kernel):
    order = []

    def body():
        order.append("process")
        yield Timeout(0.1)

    kernel.spawn(body())
    order.append("after-spawn")
    kernel.run()
    assert order == ["after-spawn", "process"]
