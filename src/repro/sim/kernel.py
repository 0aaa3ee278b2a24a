"""The simulation kernel: clock + scheduler + RNG + process spawning.

A :class:`Kernel` is the root object of every simulation.  Substrates (world,
radios, energy meters) and the middleware all hold a reference to one kernel
and use it for time, scheduling, randomness, and identifier generation.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import EventHandle
from repro.sim.process import Process, ProcessBody, Timeout
from repro.sim.scheduler import EventScheduler
from repro.util.idgen import IdGenerator
from repro.util.rng import SeededRng


class Kernel:
    """Owns the virtual clock, event scheduler, RNG tree, and running processes."""

    def __init__(self, seed: int = 0) -> None:
        self.scheduler = EventScheduler()
        self.rng = SeededRng(seed)
        self.ids = IdGenerator()

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.scheduler.now

    # -- scheduling --------------------------------------------------------

    def call_in(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        return self.scheduler.schedule(delay, callback)

    def call_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        return self.scheduler.schedule_at(time, callback)

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        *,
        start_after: Optional[float] = None,
        jitter_fraction: float = 0.0,
        rng: Optional[SeededRng] = None,
    ) -> "PeriodicTask":
        """Run ``callback`` periodically until the returned task is cancelled.

        ``jitter_fraction`` perturbs each period by ±fraction using ``rng``
        (or the kernel RNG), modelling imperfect timers in real stacks.  A
        period that is not positive, a NaN ``start_after`` or a fraction
        outside [0, 1) raises ValueError here, before anything is scheduled.
        """
        task = PeriodicTask(self, period, callback, jitter_fraction, rng or self.rng)
        task.start(start_after if start_after is not None else period)
        return task

    # -- processes -----------------------------------------------------------

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a generator as a cooperative process."""
        return Process(self, body, name=name)

    def timeout(self, delay: float) -> Timeout:
        """Convenience constructor: ``yield kernel.timeout(0.5)``."""
        return Timeout(delay)

    # -- running --------------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Advance the simulation to ``deadline`` (clock lands exactly there)."""
        self.scheduler.run_until(deadline)

    def run_for(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.scheduler.run_until(self.now + duration)

    def run_window(self, end: float) -> None:
        """Advance to ``end``, executing only events strictly before it.

        Events scheduled exactly at ``end`` belong to the next window — they
        stay queued, so consecutive ``run_window`` calls tile simulated time
        into half-open intervals with no event executed twice or skipped.
        """
        self.scheduler.run_before(end)

    def run(self) -> None:
        """Run until the event schedule drains completely."""
        self.scheduler.run()

    def run_until_complete(self, waitable, *, timeout: Optional[float] = None) -> Any:
        """Run until ``waitable`` completes; return its value.

        Raises the waitable's exception if it failed, or ``TimeoutError`` if
        ``timeout`` simulated seconds elapse first.
        """
        deadline = None if timeout is None else self.now + timeout
        while not waitable.done:
            next_time = self.scheduler.peek_time()
            if next_time is None:
                raise RuntimeError(
                    "schedule drained before waitable completed (deadlock?)"
                )
            if deadline is not None and next_time > deadline:
                self.scheduler.run_until(deadline)
                raise TimeoutError(
                    f"waitable did not complete within {timeout}s of simulated time"
                )
            self.scheduler.step()
        if waitable.exception is not None:
            raise waitable.exception
        return waitable.value


class PeriodicTask:
    """A repeating callback created by :meth:`Kernel.every`."""

    def __init__(
        self,
        kernel: Kernel,
        period: float,
        callback: Callable[[], Any],
        jitter_fraction: float,
        rng: SeededRng,
    ) -> None:
        if not period > 0:
            raise ValueError(f"period must be > 0, got {period}")
        # A fraction of 1 or more can draw a non-positive period.
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1), got {jitter_fraction}"
            )
        self._kernel = kernel
        self.period = period
        self._callback = callback
        self._jitter_fraction = jitter_fraction
        self._rng = rng
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self.fire_count = 0

    def start(self, first_delay: float) -> None:
        """(Re)arm the task; used internally by :meth:`Kernel.every`."""
        if first_delay != first_delay:  # NaN: max(0.0, nan) would be 0.0
            raise ValueError("start_after must not be NaN")
        if self._cancelled:
            return
        self._handle = self._kernel.call_in(max(0.0, first_delay), self._fire)

    def cancel(self) -> None:
        """Stop firing. Idempotent."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    def set_period(self, period: float) -> None:
        """Change the period; takes effect from the next firing."""
        if not period > 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.period = period

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self._callback()
        if self._cancelled:  # the callback may cancel its own task
            return
        delay = self._rng.jitter(self.period, self._jitter_fraction)
        self._handle = self._kernel.call_in(delay, self._fire)
