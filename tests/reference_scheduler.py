"""The heap reference scheduler: the oracle of the scheduler parity test.

:class:`ReferenceScheduler` is the one-heap design that
:class:`~repro.sim.scheduler.EventScheduler` replaced, kept as the
definition of its semantics:

- one heap entry per event, ordered by ``(time, seq)``, so events fire in
  time order and same-instant events in schedule order; ``-0.0`` and
  ``0.0`` tie on ``seq``;
- lazy cancellation: a cancelled entry stays in the heap and is skipped;
- ``step_batch`` pops every entry at the head instant before any callback
  runs, so an event a callback schedules for that instant runs in the next
  drain, and sets the clock once, from the first live event;
- ``len()`` counts events neither fired nor cancelled, exact inside a
  batch's callbacks too: each is discounted as it fires.

It never touches the cycle collector.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.errors import SchedulingInPastError


class ReferenceHandle:
    """The oracle's :class:`~repro.sim.events.EventHandle`."""

    def __init__(self, scheduler: "ReferenceScheduler", time: float,
                 callback: Callable[[], Any]) -> None:
        self.time = time
        self.callback: Optional[Callable[[], Any]] = callback
        self.cancelled = False
        self._scheduler: Optional[ReferenceScheduler] = scheduler

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = None
        scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:  # not fired yet
            scheduler._pending -= 1


class ReferenceScheduler:
    """A heap of ``(time, seq, handle)`` with the scheduler's public API."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, ReferenceHandle]] = []
        self._seq = 0
        self._now = 0.0
        self._pending = 0

    @property
    def now(self) -> float:
        return self._now

    def __len__(self) -> int:
        return self._pending

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> ReferenceHandle:
        if not time >= self._now:
            raise SchedulingInPastError(f"cannot schedule at t={time}")
        handle = ReferenceHandle(self, time, callback)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
        self._pending += 1
        return handle

    def schedule(self, delay: float, callback: Callable[[], Any]) -> ReferenceHandle:
        if not delay >= 0:
            raise SchedulingInPastError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        self._drop_cancelled_head()
        return self._heap[0][2].time if self._heap else None

    def _fire(self, handle: ReferenceHandle) -> None:
        self._pending -= 1
        handle._scheduler = None
        callback, handle.callback = handle.callback, None
        assert callback is not None
        callback()

    def step(self) -> bool:
        self._drop_cancelled_head()
        if not self._heap:
            return False
        handle = heapq.heappop(self._heap)[2]
        self._now = handle.time
        self._fire(handle)
        return True

    def step_batch(self) -> int:
        self._drop_cancelled_head()
        if not self._heap:
            return 0
        time = self._heap[0][0]
        batch = []
        while self._heap and self._heap[0][0] == time:
            batch.append(heapq.heappop(self._heap)[2])
        self._now = batch[0].time
        executed = 0
        for handle in batch:
            if handle.cancelled:
                continue
            self._fire(handle)
            executed += 1
        return executed

    def run_until(self, deadline: float) -> None:
        if not deadline >= self._now:
            raise SchedulingInPastError(f"cannot run until t={deadline}")
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step_batch()
        self._now = deadline

    def run_before(self, deadline: float) -> None:
        if not deadline >= self._now:
            raise SchedulingInPastError(f"cannot run before t={deadline}")
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time >= deadline:
                break
            self.step_batch()
        self._now = deadline

    def run(self) -> None:
        while self.step_batch():
            pass
