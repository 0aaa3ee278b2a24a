"""Kernel facade: time, periodic tasks, run helpers."""

import pytest

from repro.sim.kernel import Kernel
from repro.sim.process import Completion


def test_now_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_call_in_and_call_at(kernel):
    fired = []
    kernel.call_in(1.0, lambda: fired.append(("in", kernel.now)))
    kernel.call_at(2.0, lambda: fired.append(("at", kernel.now)))
    kernel.run()
    assert fired == [("in", 1.0), ("at", 2.0)]


def test_run_for_advances_relative(kernel):
    kernel.run_for(3.0)
    assert kernel.now == 3.0
    kernel.run_for(2.0)
    assert kernel.now == 5.0


def test_every_fires_periodically(kernel):
    ticks = []
    kernel.every(1.0, lambda: ticks.append(kernel.now))
    kernel.run_until(5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_every_start_after_zero_fires_immediately(kernel):
    ticks = []
    kernel.every(1.0, lambda: ticks.append(kernel.now), start_after=0.0)
    kernel.run_until(2.5)
    assert ticks == [0.0, 1.0, 2.0]


def test_periodic_task_cancel(kernel):
    ticks = []
    task = kernel.every(1.0, lambda: ticks.append(kernel.now))
    kernel.run_until(2.5)
    task.cancel()
    kernel.run_until(10.0)
    assert ticks == [1.0, 2.0]
    assert task.cancelled


def test_periodic_task_can_cancel_itself(kernel):
    ticks = []

    def tick():
        ticks.append(kernel.now)
        if len(ticks) == 3:
            task.cancel()

    task = kernel.every(1.0, tick)
    kernel.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_periodic_task_set_period(kernel):
    ticks = []
    task = kernel.every(1.0, lambda: ticks.append(kernel.now))
    kernel.run_until(2.0)
    # The firing already scheduled (t=3) keeps the old period; the new
    # period applies to every interval after it.
    task.set_period(2.0)
    kernel.run_until(6.5)
    assert ticks == [1.0, 2.0, 3.0, 5.0]


def test_periodic_task_rejects_bad_period(kernel):
    with pytest.raises(ValueError):
        kernel.every(0.0, lambda: None)
    with pytest.raises(ValueError):
        kernel.every(float("nan"), lambda: None)
    task = kernel.every(1.0, lambda: None)
    with pytest.raises(ValueError):
        task.set_period(-1.0)
    with pytest.raises(ValueError):
        task.set_period(float("nan"))


def test_every_rejects_nan_start_after_at_the_call(kernel):
    # max(0.0, nan) is 0.0: admitted, the task would start at once.
    with pytest.raises(ValueError, match="start_after"):
        kernel.every(1.0, lambda: None, start_after=float("nan"))
    assert len(kernel.scheduler) == 0


@pytest.mark.parametrize("fraction", [-0.1, 1.0, 3.0, float("nan")])
def test_every_rejects_bad_jitter_fraction_at_the_call(kernel, fraction):
    # A negative fraction used to raise only at the first jittered fire, and
    # a fraction of 3.0 drew a negative period that raised
    # SchedulingInPastError from a later run_until.
    with pytest.raises(ValueError, match="jitter_fraction"):
        kernel.every(1.0, lambda: None, jitter_fraction=fraction)
    assert len(kernel.scheduler) == 0


def test_periodic_jitter_stays_within_fraction(kernel):
    times = []
    kernel.every(1.0, lambda: times.append(kernel.now), jitter_fraction=0.1)
    kernel.run_until(50.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(0.9 <= gap <= 1.1 for gap in gaps)
    assert len(set(gaps)) > 1  # jitter actually jitters


def test_run_until_complete_returns_value(kernel):
    completion = Completion()
    kernel.call_in(2.0, lambda: completion.succeed("done"))
    assert kernel.run_until_complete(completion) == "done"
    assert kernel.now == 2.0


def test_run_until_complete_raises_waitable_exception(kernel):
    completion = Completion()
    kernel.call_in(1.0, lambda: completion.fail(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        kernel.run_until_complete(completion)


def test_run_until_complete_timeout(kernel):
    completion = Completion()
    kernel.every(1.0, lambda: None)  # keep the schedule alive
    with pytest.raises(TimeoutError):
        kernel.run_until_complete(completion, timeout=5.0)
    assert kernel.now == pytest.approx(5.0)


def test_run_until_complete_deadlock_detection(kernel):
    completion = Completion()
    with pytest.raises(RuntimeError, match="deadlock"):
        kernel.run_until_complete(completion)


def test_deterministic_given_seed():
    def run(seed):
        kernel = Kernel(seed=seed)
        samples = []
        kernel.every(1.0, lambda: samples.append(kernel.rng.random()),
                     jitter_fraction=0.2)
        kernel.run_until(20.0)
        return samples

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_run_window_fires_strictly_before_end(kernel):
    fired = []
    kernel.call_at(1.0, lambda: fired.append("inside"))
    kernel.call_at(2.0, lambda: fired.append("boundary"))
    kernel.run_window(2.0)
    assert fired == ["inside"]
    assert kernel.now == 2.0
    kernel.run_window(3.0)
    assert fired == ["inside", "boundary"]
