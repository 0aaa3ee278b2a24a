"""Scheduled-callback handles.

The scheduler hands out an :class:`EventHandle` for every scheduled callback;
holding the handle allows cancellation, which the scheduler implements
lazily: a cancelled handle stays in its instant's list with its callback
dropped, and is skipped when its turn comes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    from repro.sim.scheduler import EventScheduler


class EventHandle:
    """A cancellable reference to one scheduled callback.

    ``callback`` is None once the event has fired or been cancelled; that
    is how the scheduler tells a live event from a dead one.
    """

    __slots__ = ("time", "callback", "_cancelled", "_scheduler")

    def __init__(self, time: float, callback: Callable[[], Any],
                 scheduler: "EventScheduler") -> None:
        self.time = time
        self.callback: Optional[Callable[[], Any]] = callback
        self._cancelled = False
        # The scheduler whose pending count a cancel() before firing drops.
        self._scheduler = scheduler

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        self._cancelled = True
        if self.callback is not None:  # neither fired nor cancelled yet
            self.callback = None  # release closure references eagerly
            self._scheduler._event_cancelled()

    def __repr__(self) -> str:
        if self._cancelled:
            state = "cancelled"
        else:
            state = "pending" if self.callback is not None else "fired"
        return f"EventHandle(t={self.time:.6f}, {state})"
