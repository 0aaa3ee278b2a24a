"""The event scheduler: a deterministic time-ordered callback heap."""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.errors import SchedulingInPastError
from repro.sim.events import EventHandle


class EventScheduler:
    """A min-heap of timed callbacks with deterministic tie-breaking.

    Two events scheduled for the same instant fire in the order they were
    scheduled (FIFO), which keeps simulations reproducible regardless of heap
    internals.
    """

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._seq = 0
        self._now = 0.0
        self._pending = 0  # live count of non-cancelled events in the heap

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events.

        Maintained incrementally on push/pop/cancel, so this is O(1) — it
        used to re-scan the whole heap, which made innocent-looking progress
        checks (``while len(scheduler): ...``) quadratic.
        """
        return self._pending

    def _event_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`."""
        self._pending -= 1

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulation ``time``.

        A time before now, or NaN (which compares false with everything,
        so would otherwise jump the heap's order), raises.
        """
        if not time >= self._now:
            raise SchedulingInPastError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        handle = EventHandle(time, self._seq, callback)
        handle._scheduler = self
        self._seq += 1
        self._pending += 1
        heapq.heappush(self._heap, handle)
        return handle

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SchedulingInPastError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def peek_time(self) -> Optional[float]:
        """The time of the next pending event, or None when idle."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0].time

    def step(self) -> bool:
        """Pop and execute the next event. Returns False when none remain.

        The clock jumps to the event's time *before* its callback runs, so a
        callback observing ``now`` sees its own scheduled instant.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        handle = heapq.heappop(self._heap)
        self._pending -= 1
        handle._scheduler = None  # fired: a later cancel() must not decrement
        self._now = handle.time
        callback, handle.callback = handle.callback, None
        assert callback is not None  # non-cancelled head always has one
        callback()
        return True

    def step_batch(self) -> int:
        """Execute every event scheduled at the next instant in one drain.

        Equivalent to calling :meth:`step` once per event at the head time,
        but the heap is drained before any callback runs, saving one
        sift-down per event on dense timestamps (simultaneous beacon rounds,
        broadcast delivery fan-outs).  Callbacks still fire in schedule
        (FIFO) order; an event cancelled by an earlier event in the same
        batch is skipped; an event *scheduled* for the same instant by a
        batch callback lands in the next drain — exactly where per-event
        pops would have put it, since its sequence number is higher than the
        whole batch's.  Returns the number of callbacks executed.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return 0
        heap = self._heap
        handle = heapq.heappop(heap)
        self._pending -= 1
        handle._scheduler = None
        self._now = handle.time
        if not heap or heap[0].time != handle.time:
            # Lone event at this instant: skip the batch list entirely.
            callback, handle.callback = handle.callback, None
            assert callback is not None
            callback()
            return 1
        batch = [handle]
        time = handle.time
        while heap and heap[0].time == time:
            head = heapq.heappop(heap)
            if head.cancelled:  # already discounted from _pending by cancel()
                continue
            self._pending -= 1
            head._scheduler = None
            batch.append(head)
        executed = 0
        for handle in batch:
            if handle.cancelled:  # cancelled by an earlier batch callback
                continue
            callback, handle.callback = handle.callback, None
            assert callback is not None
            callback()
            executed += 1
        return executed

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
        next window and stay in the heap.  The clock still ends exactly at
        ``deadline``, so a follow-up ``run_before(t2)`` picks up seamlessly.
        """
        if not deadline >= self._now:
            raise SchedulingInPastError(
                f"cannot run before t={deadline} (now is t={self._now})"
            )
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time >= deadline:
                break
            self.step_batch()
        self._now = deadline

    def run(self) -> None:
        """Execute events until the schedule drains."""
        while self.step_batch():
            pass

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
