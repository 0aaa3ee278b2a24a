"""Event scheduler: ordering, cancellation, clock semantics, freeze guard."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.sim.errors import SchedulingInPastError
from repro.sim.scheduler import EventScheduler

NAN = float("nan")


def test_events_fire_in_time_order():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(0.3, lambda: fired.append("c"))
    scheduler.schedule(0.1, lambda: fired.append("a"))
    scheduler.schedule(0.2, lambda: fired.append("b"))
    scheduler.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    scheduler = EventScheduler()
    fired = []
    for label in "abcde":
        scheduler.schedule(1.0, lambda label=label: fired.append(label))
    scheduler.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time_before_callback():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule(2.5, lambda: seen.append(scheduler.now))
    scheduler.run()
    assert seen == [2.5]


def test_run_until_lands_exactly_on_deadline():
    scheduler = EventScheduler()
    scheduler.schedule(0.5, lambda: None)
    scheduler.run_until(10.0)
    assert scheduler.now == 10.0


def test_run_until_does_not_fire_later_events():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(5.0, lambda: fired.append("late"))
    scheduler.run_until(4.999)
    assert fired == []
    scheduler.run_until(5.0)
    assert fired == ["late"]


def test_cancelled_events_do_not_fire():
    scheduler = EventScheduler()
    fired = []
    handle = scheduler.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    scheduler.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    scheduler = EventScheduler()
    handle = scheduler.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert len(scheduler) == 0


def test_len_counts_only_pending():
    scheduler = EventScheduler()
    keep = scheduler.schedule(1.0, lambda: None)
    drop = scheduler.schedule(2.0, lambda: None)
    drop.cancel()
    assert len(scheduler) == 1


def test_len_stays_exact_across_cancel_and_reschedule():
    # Regression: __len__ is maintained incrementally now (it used to
    # re-scan the heap), so every push/pop/cancel path must keep it exact —
    # including cancelling an already-fired handle and double-cancels.
    scheduler = EventScheduler()
    first = scheduler.schedule(1.0, lambda: None)
    second = scheduler.schedule(2.0, lambda: None)
    assert len(scheduler) == 2
    first.cancel()
    assert len(scheduler) == 1
    replacement = scheduler.schedule(1.5, lambda: None)
    assert len(scheduler) == 2
    replacement.cancel()
    replacement.cancel()  # idempotent: must not double-decrement
    assert len(scheduler) == 1
    assert scheduler.step() is True  # fires `second`
    assert len(scheduler) == 0
    second.cancel()  # cancelling after firing must not go negative
    assert len(scheduler) == 0
    again = scheduler.schedule(1.0, lambda: None)
    assert len(scheduler) == 1
    scheduler.run()
    assert len(scheduler) == 0


def test_len_exact_while_cancelled_events_still_in_heap():
    scheduler = EventScheduler()
    handles = [scheduler.schedule(float(i + 1), lambda: None) for i in range(5)]
    handles[3].cancel()
    handles[1].cancel()
    # The cancelled handles are still queued (lazy deletion), but the
    # count must already exclude them.
    assert len(scheduler) == 3
    scheduler.run()
    assert len(scheduler) == 0


def test_scheduling_in_past_raises():
    scheduler = EventScheduler()
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SchedulingInPastError):
        scheduler.schedule_at(0.5, lambda: None)
    with pytest.raises(SchedulingInPastError):
        scheduler.schedule(-0.1, lambda: None)
    # NaN compares false with every time: admitted, it would run first and
    # leave the clock at NaN.
    with pytest.raises(SchedulingInPastError):
        scheduler.schedule_at(NAN, lambda: None)
    with pytest.raises(SchedulingInPastError):
        scheduler.schedule(NAN, lambda: None)
    assert len(scheduler) == 0


def test_run_until_backwards_raises():
    scheduler = EventScheduler()
    scheduler.run_until(5.0)
    with pytest.raises(SchedulingInPastError):
        scheduler.run_until(4.0)
    fired = []
    scheduler.schedule_at(1e9, lambda: fired.append("late"))
    with pytest.raises(SchedulingInPastError):
        scheduler.run_until(NAN)
    assert fired == []
    assert scheduler.now == 5.0


def test_callback_may_schedule_more_events():
    scheduler = EventScheduler()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            scheduler.schedule(1.0, lambda: chain(depth + 1))

    scheduler.schedule(1.0, lambda: chain(0))
    scheduler.run()
    assert fired == [0, 1, 2, 3]
    assert scheduler.now == 4.0


def test_peek_time_skips_cancelled():
    scheduler = EventScheduler()
    early = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    early.cancel()
    assert scheduler.peek_time() == 2.0


def test_step_returns_false_when_drained():
    scheduler = EventScheduler()
    assert scheduler.step() is False
    scheduler.schedule(0.1, lambda: None)
    assert scheduler.step() is True
    assert scheduler.step() is False


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_property_firing_order_is_sorted_by_time(delays):
    scheduler = EventScheduler()
    fired = []
    for index, delay in enumerate(delays):
        scheduler.schedule(delay, lambda d=delay: fired.append(d))
    scheduler.run()
    assert fired == sorted(delays)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                max_size=30))
def test_property_cancelled_never_fire(items):
    scheduler = EventScheduler()
    fired = []
    expected = []
    for index, (delay, keep) in enumerate(items):
        handle = scheduler.schedule(delay, lambda i=index: fired.append(i))
        if keep:
            expected.append(index)
        else:
            handle.cancel()
    scheduler.run()
    assert sorted(fired) == expected


def test_run_before_stops_short_of_deadline_events():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(1.0, lambda: fired.append("early"))
    scheduler.schedule(2.0, lambda: fired.append("boundary"))
    scheduler.run_before(2.0)
    assert fired == ["early"]
    assert scheduler.now == 2.0
    # The boundary event is still queued and fires in the next window.
    scheduler.run_before(3.0)
    assert fired == ["early", "boundary"]


def test_run_before_backwards_raises():
    scheduler = EventScheduler()
    scheduler.run_before(5.0)
    with pytest.raises(SchedulingInPastError):
        scheduler.run_before(4.0)
    fired = []
    scheduler.schedule_at(1e9, lambda: fired.append("late"))
    with pytest.raises(SchedulingInPastError):
        scheduler.run_before(NAN)
    assert fired == []
    assert scheduler.now == 5.0


def test_step_batch_executes_all_ties_at_once():
    scheduler = EventScheduler()
    fired = []
    for label in "abc":
        scheduler.schedule(1.0, lambda label=label: fired.append(label))
    scheduler.schedule(2.0, lambda: fired.append("later"))
    assert scheduler.step_batch() == 3
    assert fired == ["a", "b", "c"]
    assert scheduler.step_batch() == 1
    assert fired == ["a", "b", "c", "later"]
    assert scheduler.step_batch() == 0


def test_step_batch_respects_cancellation_inside_the_batch():
    scheduler = EventScheduler()
    fired = []
    handles = [
        scheduler.schedule(1.0, lambda i=i: fired.append(i)) for i in range(4)
    ]
    # Event 0 cancels event 2 when it runs — same timestamp, same batch.
    handles[0].callback = lambda: (fired.append(0), handles[2].cancel())
    assert scheduler.step_batch() == 3
    assert fired == [0, 1, 3]
    assert len(scheduler) == 0


def test_len_inside_a_batch_counts_the_rest_of_the_batch():
    scheduler = EventScheduler()
    seen = []
    for _ in range(3):
        scheduler.schedule(1.0, lambda: seen.append(len(scheduler)))
    scheduler.schedule(2.0, lambda: None)
    assert scheduler.step_batch() == 3
    assert seen == [3, 2, 1]


def test_batched_run_matches_stepwise_run_exactly():
    def build():
        scheduler = EventScheduler()
        fired = []
        for index, time in enumerate([3.0, 1.0, 1.0, 2.0, 1.0, 3.0]):
            scheduler.schedule(time, lambda i=index, t=time: fired.append((t, i)))
        return scheduler, fired

    batched, batched_fired = build()
    batched.run()
    stepwise, stepwise_fired = build()
    while stepwise.step():
        pass
    assert batched_fired == stepwise_fired


# -- the freeze guard: a large drain keeps the collector off the built scene --


def _loaded(count):
    """A scheduler with ``count`` no-op events at t=1."""
    scheduler = EventScheduler()
    for _ in range(count):
        scheduler.schedule(1.0, lambda: None)
    return scheduler


def _record_freeze_count(scheduler, seen):
    scheduler.schedule(1.0, lambda: seen.append(gc.get_freeze_count()))


@pytest.fixture
def collector():
    """The collector as a freezing drain needs it: on, nothing frozen."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    yield
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("drain", [
    lambda scheduler: scheduler.run_until(1.0),
    lambda scheduler: scheduler.run_before(2.0),
    lambda scheduler: scheduler.run(),
], ids=["run_until", "run_before", "run"])
def test_freezing_drain_thaws_on_return_and_on_raise(collector, drain):
    seen = []
    scheduler = _loaded(gc.get_threshold()[0])
    _record_freeze_count(scheduler, seen)
    drain(scheduler)
    assert seen[0] > 0
    assert gc.get_freeze_count() == 0

    def fail():
        raise RuntimeError("callback failed")

    scheduler = _loaded(gc.get_threshold()[0])
    _record_freeze_count(scheduler, seen)
    scheduler.schedule(1.0, fail)
    with pytest.raises(RuntimeError, match="callback failed"):
        drain(scheduler)
    assert seen[1] > 0
    assert gc.get_freeze_count() == 0


def test_drain_leaves_a_callers_frozen_objects_frozen(collector):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        seen = []
        scheduler = _loaded(gc.get_threshold()[0])
        _record_freeze_count(scheduler, seen)
        scheduler.run()
        # Neither frozen again (the count would grow) nor thawed (it would
        # drop to 0).
        assert seen == [frozen]
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_drain_nested_in_a_callback_neither_freezes_nor_thaws(collector):
    seen = []

    def nest():
        # Built after the outer drain froze, so nothing here is frozen and
        # nothing that dies here moves the count.
        inner = _loaded(gc.get_threshold()[0])
        _record_freeze_count(inner, seen)
        seen.append(gc.get_freeze_count())
        inner.run()
        seen.append(gc.get_freeze_count())

    outer = _loaded(gc.get_threshold()[0])
    outer.schedule(1.0, nest)
    outer.run()
    before, inside, after = seen
    assert before > 0
    assert inside == before
    assert after == before
    assert gc.get_freeze_count() == 0


def test_drain_below_the_threshold_does_not_freeze(collector):
    seen = []
    scheduler = _loaded(gc.get_threshold()[0] - 2)
    _record_freeze_count(scheduler, seen)
    assert len(scheduler) == gc.get_threshold()[0] - 1
    scheduler.run()
    assert seen == [0]


def test_drain_with_the_collector_off_does_not_freeze(collector):
    seen = []
    scheduler = _loaded(gc.get_threshold()[0])
    _record_freeze_count(scheduler, seen)
    gc.disable()
    try:
        scheduler.run()
    finally:
        gc.enable()
    assert seen == [0]
