"""The event scheduler: timed callbacks, bucketed by instant.

Pending events sit in one FIFO list per *instant* (distinct simulated
time), and a min-heap holds only the distinct times, as floats.  A beacon
round puts thousands of events on a handful of instants, so ordering costs
a few C float comparisons per instant instead of a Python comparison per
event.

A *drain* (one call of :meth:`EventScheduler.run_until`, ``run_before`` or
``run``) that starts with a queue as long as the cycle collector's
generation-0 threshold freezes everything built before it out of the
collector (:func:`gc.freeze`) and thaws it on exit, so the full collections
its own garbage sets off traverse only what the drain allocated, not the
whole built scene.  Nothing under ``repro`` holds a weak reference or
defines ``__del__``, so when the collector runs cannot change a result.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim.errors import SchedulingInPastError
from repro.sim.events import EventHandle


class EventScheduler:
    """Timed callbacks with deterministic tie-breaking.

    Events fire in time order, and two events for the same instant fire in
    the order they were scheduled (FIFO), which keeps simulations
    reproducible.
    """

    def __init__(self) -> None:
        # instant -> its events in schedule order.  -0.0 and 0.0 are one
        # key (they compare and hash equal); each handle keeps its own time.
        self._buckets: Dict[float, List[EventHandle]] = {}
        self._times: List[float] = []  # min-heap of the keys of _buckets
        # The head bucket that step() and peek_time() have walked into, and
        # the index of its first event they have not passed: every event
        # before it has fired or been cancelled.
        self._head: Optional[List[EventHandle]] = None
        self._first = 0
        self._now = 0.0
        self._pending = 0  # events neither fired nor cancelled

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        """Number of pending events: neither fired nor cancelled.

        Maintained on schedule, fire and cancel, so it is O(1) and exact
        everywhere, inside a batch's callbacks too.
        """
        return self._pending

    def _event_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`."""
        self._pending -= 1

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulation ``time``.

        A time before now, or NaN (which compares false with everything,
        so would otherwise jump the queue's order), raises.
        """
        if not time >= self._now:
            raise SchedulingInPastError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        handle = EventHandle(time, callback, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [handle]
            heapq.heappush(self._times, time)
        else:
            bucket.append(handle)
        self._pending += 1
        return handle

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SchedulingInPastError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def _live_head(self) -> Optional[List[EventHandle]]:
        """The earliest bucket with a live event, ``_first`` indexing it.

        Drops the buckets whose events have all fired or been cancelled;
        None when nothing is pending.  ``step`` leaves ``_first`` past the
        events it fired, and no earlier instant can come before a bucket
        that has begun to fire, so stepping through a bucket is amortised
        O(1) per event.
        """
        times = self._times
        while times:
            bucket = self._buckets[times[0]]
            first = self._first if bucket is self._head else 0
            size = len(bucket)
            while first < size and bucket[first].callback is None:
                first += 1
            if first < size:
                self._head = bucket
                self._first = first
                return bucket
            del self._buckets[heapq.heappop(times)]
        self._head = None
        return None

    def peek_time(self) -> Optional[float]:
        """The time of the next pending event, or None when idle."""
        bucket = self._live_head()
        if bucket is None:
            return None
        return bucket[self._first].time

    def step(self) -> bool:
        """Execute the next event. Returns False when none remain.

        The clock jumps to the event's time *before* its callback runs, so a
        callback observing ``now`` sees its own scheduled instant.
        """
        bucket = self._live_head()
        if bucket is None:
            return False
        handle = bucket[self._first]
        self._first += 1
        self._pending -= 1
        self._now = handle.time
        callback, handle.callback = handle.callback, None
        assert callback is not None  # _live_head stops at a live event
        callback()
        return True

    def step_batch(self) -> int:
        """Execute every event scheduled at the next instant in one drain.

        Fires the same events in the same (FIFO) order as calling
        :meth:`step` once per event at the head instant, but takes the
        instant's whole list off the queue before any callback runs.  An
        event cancelled by an earlier callback of the batch is skipped; an
        event a callback *schedules* for the same instant lands in a fresh
        list, so it runs in the next drain.  The clock is set once, from
        the first live event.  Returns the number of callbacks executed.
        """
        batch = self._live_head()
        if batch is None:
            return 0
        del self._buckets[heapq.heappop(self._times)]
        self._head = None
        self._now = batch[self._first].time
        executed = 0
        for handle in batch:
            callback = handle.callback
            if callback is None:  # fired by step(), or cancelled
                continue
            handle.callback = None
            self._pending -= 1
            callback()
            executed += 1
        return executed

    @contextlib.contextmanager
    def _draining(self) -> Iterator[None]:
        """The scope of one drain: everything built before it is frozen out
        of the cycle collector if the drain starts with at least
        ``gc.get_threshold()[0]`` events, and thawed when it ends.

        Does nothing with the collector off, or when anything is frozen
        already: a caller's frozen objects are never thawed, and a drain
        nested in a callback of a freezing drain leaves it to the outer one.
        """
        if (
            self._pending < gc.get_threshold()[0]
            or not gc.isenabled()
            or gc.get_freeze_count()
        ):
            yield
            return
        gc.freeze()
        try:
            yield
        finally:
            gc.unfreeze()

    def run_until(self, deadline: float) -> None:
        """Execute every event scheduled at or before ``deadline``.

        The clock always ends exactly at ``deadline`` even if the schedule
        drains early, so periodic measurements (e.g. energy integration) have
        a well-defined window.
        """
        if not deadline >= self._now:
            raise SchedulingInPastError(
                f"cannot run until t={deadline} (now is t={self._now})"
            )
        with self._draining():
            while True:
                next_time = self.peek_time()
                if next_time is None or next_time > deadline:
                    break
                self.step_batch()
        self._now = deadline

    def run_before(self, deadline: float) -> None:
        """Execute every event scheduled *strictly* before ``deadline``.

        The half-open counterpart of :meth:`run_until`, used for horizon
        windows ``[t0, t1)``: events landing exactly on ``t1`` belong to the
        next window and stay queued.  The clock still ends exactly at
        ``deadline``, so a follow-up ``run_before(t2)`` picks up seamlessly.
        """
        if not deadline >= self._now:
            raise SchedulingInPastError(
                f"cannot run before t={deadline} (now is t={self._now})"
            )
        with self._draining():
            while True:
                next_time = self.peek_time()
                if next_time is None or next_time >= deadline:
                    break
                self.step_batch()
        self._now = deadline

    def run(self) -> None:
        """Execute events until the schedule drains."""
        with self._draining():
            while self.step_batch():
                pass
