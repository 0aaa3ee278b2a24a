"""Scheduler parity: the instant-bucketed scheduler against the heap oracle.

Hypothesis draws one program and runs it on both
:class:`~repro.sim.scheduler.EventScheduler` and
:class:`~tests.reference_scheduler.ReferenceScheduler`.  A program is a
list of top-level operations (schedule, cancel, ``step``, ``step_batch``,
``run_until``, ``run_before``, ``run``); every scheduled event carries a
tree of actions its callback performs when it fires: schedule more events
(at its own instant or later, each with actions of its own), cancel any
handle (one that already fired too), or peek.  Times come from a small pool
with repeats, ``0.0``, ``-0.0`` and the current time, so instants are
shared, ``-0.0`` ties with ``0.0``, and callbacks schedule into the instant
that is draining.

After each operation both sides must have logged the same thing: which
events fired in what order, the clock (sign included) and ``len()`` each
callback saw, the operation's return value or refusal, and the clock,
``len()`` and, where drawn, ``peek_time()`` after it.  ``run_until`` is
closed and ``run_before`` half-open at every deadline in the pool.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from hypothesis import example, given, strategies as st

from repro.sim.errors import SchedulingInPastError
from repro.sim.scheduler import EventScheduler
from tests.reference_scheduler import ReferenceScheduler

#: Absolute times: repeats share instants, and -0.0 ties with 0.0.
TIMES = (0.0, -0.0, 0.5, 1.0, 1.5, 2.0)
#: Delays from now; 0.0 and -0.0 land on the current instant.
DELAYS = (0.0, -0.0, 0.5, 1.0)

#: When an event is scheduled, or a drain ends: ("at", t) absolute,
#: ("now", None) the current time, ("in", d) now + d.
WHEN = st.one_of(
    st.tuples(st.just("at"), st.sampled_from(TIMES)),
    st.tuples(st.just("now"), st.none()),
    st.tuples(st.just("in"), st.sampled_from(DELAYS)),
)

#: What a callback does when it fires, in order.
ACTIONS = st.recursive(
    st.just(()),
    lambda inner: st.lists(
        st.one_of(
            st.tuples(st.just("schedule"), WHEN, inner),
            st.tuples(st.just("cancel"), st.integers(0, 63)),
            st.tuples(st.just("peek")),
        ),
        max_size=3,
    ).map(tuple),
    max_leaves=8,
)

#: A top-level operation: (name, argument, peek after it?).
SCHEDULE = st.tuples(st.just("schedule"), st.tuples(WHEN, ACTIONS), st.booleans())
STEP = st.tuples(st.sampled_from(["step", "step_batch"]), st.none(), st.booleans())
#: Weighted towards scheduling and stepping, so most programs fire events
#: at several instants one by one before a drain or cancel ends them.
OPERATION = st.one_of(
    SCHEDULE,
    SCHEDULE,
    SCHEDULE,
    STEP,
    STEP,
    st.tuples(st.just("cancel"), st.integers(0, 63), st.booleans()),
    st.tuples(st.sampled_from(["run_until", "run_before"]), WHEN, st.booleans()),
    st.tuples(st.just("run"), st.none(), st.booleans()),
)


class Side:
    """One scheduler running a program, logging what it observes."""

    def __init__(self, scheduler: Any) -> None:
        self.scheduler = scheduler
        self.handles: List[Any] = []
        self.log: List[Tuple[Any, ...]] = []

    def time_of(self, when: Tuple[str, Any]) -> float:
        kind, value = when
        if kind == "at":
            return value
        if kind == "now":
            return self.scheduler.now
        return self.scheduler.now + value

    def schedule(self, when: Tuple[str, Any], actions: Tuple[Any, ...]) -> None:
        label = len(self.handles)
        callback = lambda: self.fire(label, actions)  # noqa: E731
        try:
            if when[0] == "in":
                handle = self.scheduler.schedule(when[1], callback)
            else:
                handle = self.scheduler.schedule_at(self.time_of(when), callback)
        except SchedulingInPastError:
            self.log.append(("refused", label))
            return
        self.handles.append(handle)

    def cancel(self, index: int) -> None:
        if self.handles:
            index %= len(self.handles)
            self.handles[index].cancel()
            self.log.append(("cancel", index))

    def fire(self, label: int, actions: Tuple[Any, ...]) -> None:
        scheduler = self.scheduler
        self.log.append(("fire", label, repr(scheduler.now), len(scheduler)))
        for action in actions:
            if action[0] == "schedule":
                self.schedule(action[1], action[2])
            elif action[0] == "cancel":
                self.cancel(action[1])
            else:
                self.log.append(("peek", repr(scheduler.peek_time())))

    def apply(self, operation: Tuple[str, Any, bool]) -> None:
        name, argument, peek = operation
        scheduler = self.scheduler
        result: Any = None
        if name == "schedule":
            self.schedule(*argument)
        elif name == "cancel":
            self.cancel(argument)
        elif argument is None:
            result = getattr(scheduler, name)()
        else:
            try:
                getattr(scheduler, name)(self.time_of(argument))
            except SchedulingInPastError:
                result = "refused"
        after = (repr(scheduler.now), len(scheduler))
        if peek:
            after += (repr(scheduler.peek_time()),)
        self.log.append((name, result) + after)


#: A program: a few events scheduled up front, then any operations, then a
#: final ``run()`` that fires whatever is left.
PROGRAM = st.tuples(
    st.lists(SCHEDULE, min_size=1, max_size=8), st.lists(OPERATION, max_size=20)
).map(lambda parts: parts[0] + parts[1] + [("run", None, True)])


@given(PROGRAM)
# Two same-instant events whose keys differ in sign: one batch, and the
# clock comes from the first.
@example([("schedule", (("at", -0.0), ()), False),
          ("schedule", (("at", 0.0), ()), False),
          ("step_batch", None, True)])
@example([("schedule", (("at", 0.0), ()), False),
          ("schedule", (("at", -0.0), ()), False),
          ("step", None, True), ("step", None, True)])
# A batch callback schedules into its own instant (next drain) and cancels
# the batch's last event; a fired handle is cancelled afterwards.
@example([("schedule", (("at", 1.0), (("schedule", ("now", None), ()),
                                      ("cancel", 2))), False),
          ("schedule", (("at", 1.0), (("peek",),)), False),
          ("schedule", (("at", 1.0), ()), False),
          ("step_batch", None, True), ("cancel", 0, True),
          ("step_batch", None, True), ("step_batch", None, True)])
# A step() callback schedules into the instant it is stepping through.
@example([("schedule", (("at", 0.5), (("schedule", ("in", 0.0), ()),)), False),
          ("schedule", (("at", 0.5), ()), False),
          ("step", None, False), ("step_batch", None, True)])
# A peek walks past a cancelled event at 1.0; an earlier instant scheduled
# after it must still fire from its own first event.
@example(([("schedule", (("at", 1.0), ()), False),
           ("schedule", (("at", 1.0), ()), False),
           ("cancel", 0, True),
           ("schedule", (("at", 0.5), ()), False),
           ("step", None, True), ("step", None, True)]))
# Horizon windows: run_before stops short of its deadline, run_until
# includes it.
@example([("schedule", (("at", 1.0), ()), False),
          ("run_before", ("at", 1.0), True),
          ("run_until", ("at", 1.0), True)])
def test_scheduler_matches_heap_reference(operations):
    production = Side(EventScheduler())
    reference = Side(ReferenceScheduler())
    for operation in operations:
        production.apply(operation)
        reference.apply(operation)
        assert production.log == reference.log
    assert [handle.cancelled for handle in production.handles] == [
        handle.cancelled for handle in reference.handles
    ]
