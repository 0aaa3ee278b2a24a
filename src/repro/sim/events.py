"""Scheduled-callback handles.

The scheduler hands out an :class:`EventHandle` for every scheduled callback;
holding the handle allows cancellation, which the kernel implements lazily
(cancelled handles stay in the heap but are skipped when popped).
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class EventHandle:
    """A cancellable reference to one scheduled callback."""

    __slots__ = ("time", "seq", "callback", "_cancelled", "_scheduler")

    def __init__(self, time: float, seq: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], Any]] = callback
        self._cancelled = False
        # Back-reference used for O(1) pending-event accounting; set by the
        # scheduler on push, cleared when the event fires or is cancelled.
        self._scheduler = None

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self.callback = None  # release closure references eagerly
        scheduler = self._scheduler
        if scheduler is not None:
            self._scheduler = None
            scheduler._event_cancelled()

    def __lt__(self, other: "EventHandle") -> bool:
        # heapq ordering: time first, then insertion order for determinism.
        # The order of the (time, seq) tuples, without building them: the
        # scheduler admits no NaN time, and -0.0 == 0.0 ties on seq here
        # as it does there.
        time = self.time
        other_time = other.time
        return time < other_time or (
            time == other_time and self.seq < other.seq
        )

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"
