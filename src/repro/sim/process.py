"""Generator-based cooperative processes.

Protocol code in this reproduction is written as plain Python generators that
``yield`` *waitables* — objects describing what the process is waiting for —
in the style of SimPy.  Example::

    def beacon_loop(kernel, radio):
        while True:
            radio.advertise_once()
            yield Timeout(0.5)

The kernel resumes a process when its waitable completes, sending the
waitable's result back as the value of the ``yield`` expression.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.errors import Interrupt, ProcessAlreadyFinished

ProcessBody = Generator[Any, Any, Any]


class Waitable:
    """Base class for things a process may ``yield``.

    A waitable completes at most once, resuming every waiting process with a
    value (or an exception).  Subclasses arrange for :meth:`_complete` to be
    called; the kernel wires process resumption.
    """

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Waitable"], None]] = []

    @property
    def done(self) -> bool:
        """True once the waitable has completed (value or exception)."""
        return self._done

    @property
    def value(self) -> Any:
        """The completion value; only meaningful when :attr:`done`."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The completion exception, if the waitable failed."""
        return self._exception

    def add_done_callback(self, callback: Callable[["Waitable"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if already done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _complete(self, value: Any = None, exception: Optional[BaseException] = None) -> None:
        if self._done:
            return
        self._done = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # Subclasses that need kernel facilities (e.g. Timeout needs the clock)
    # implement _start; the kernel calls it when a process yields the waitable.
    def _start(self, kernel: "object") -> None:
        """Hook called when a process begins waiting; default: nothing."""

    def _abandon(self) -> None:
        """Hook called when the waiting process is interrupted away.

        Subclasses holding external registrations (queue getter slots,
        scheduled timers) release them here so resources aren't consumed on
        behalf of a process that will never receive the result.
        """


class Completion(Waitable):
    """A manually-completed waitable (promise)."""

    def succeed(self, value: Any = None) -> None:
        """Complete successfully with ``value``."""
        self._complete(value=value)

    def fail(self, exception: BaseException) -> None:
        """Complete with an exception, re-raised in waiting processes."""
        self._complete(exception=exception)


class Timeout(Waitable):
    """Completes ``delay`` seconds after the process starts waiting."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay
        self._handle = None

    def _start(self, kernel) -> None:
        self._handle = kernel.scheduler.schedule(self.delay, self._fire)

    def _fire(self) -> None:
        self._complete(value=self.delay)

    def _abandon(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class AnyOf(Waitable):
    """Completes when the first of several waitables completes.

    The value is a ``(index, value)`` tuple identifying the winner.  Losers
    are left pending; callers that need to cancel them do so explicitly.
    """

    def __init__(self, waitables: List[Waitable]) -> None:
        super().__init__()
        if not waitables:
            raise ValueError("AnyOf requires at least one waitable")
        self.waitables = list(waitables)

    def _start(self, kernel) -> None:
        for index, waitable in enumerate(self.waitables):
            waitable._start(kernel)
            waitable.add_done_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Waitable], None]:
        def on_done(waitable: Waitable) -> None:
            if waitable.exception is not None:
                self._complete(exception=waitable.exception)
            else:
                self._complete(value=(index, waitable.value))

        return on_done


class AllOf(Waitable):
    """Completes when every constituent waitable has completed.

    The value is the list of constituent values in order.  The first
    exception, if any, fails the whole group.
    """

    def __init__(self, waitables: List[Waitable]) -> None:
        super().__init__()
        self.waitables = list(waitables)
        self._remaining = len(self.waitables)

    def _start(self, kernel) -> None:
        if not self.waitables:
            self._complete(value=[])
            return
        for waitable in self.waitables:
            waitable._start(kernel)
            waitable.add_done_callback(self._on_child_done)

    def _on_child_done(self, waitable: Waitable) -> None:
        if self._done:
            return
        if waitable.exception is not None:
            self._complete(exception=waitable.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._complete(value=[child.value for child in self.waitables])


class Process(Waitable):
    """A running generator; itself waitable (joinable) by other processes."""

    def __init__(self, kernel, body: ProcessBody, name: str = "") -> None:
        super().__init__()
        self._kernel = kernel
        self._body = body
        self.name = name or getattr(body, "__name__", "process")
        self._waiting_on: Optional[Waitable] = None
        # First step happens asynchronously at the current instant so that
        # spawn() during event processing cannot reenter arbitrary code.
        kernel.scheduler.schedule(0.0, lambda: self._step(None, None))

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.done

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self.done:
            raise ProcessAlreadyFinished(f"cannot interrupt finished {self.name}")
        waiting_on, self._waiting_on = self._waiting_on, None
        if waiting_on is not None:
            waiting_on._abandon()
        # A stale waitable may still complete later; guard in _resume.
        self._kernel.scheduler.schedule(
            0.0, lambda: self._step(None, Interrupt(cause))
        )

    def _resume(self, waitable: Waitable) -> None:
        if self._waiting_on is not waitable:
            return  # interrupted while waiting; stale wakeup
        self._waiting_on = None
        self._step(waitable.value, waitable.exception)

    def _step(self, value: Any, exception: Optional[BaseException]) -> None:
        if self.done:
            return
        try:
            if exception is not None:
                yielded = self._body.throw(exception)
            else:
                yielded = self._body.send(value)
        except StopIteration as stop:
            self._complete(value=stop.value)
            return
        except Interrupt as interrupt:
            # An uncaught interrupt terminates the process quietly: that is
            # the normal way long-running protocol loops are shut down.
            self._complete(value=interrupt.cause)
            return
        except BaseException as error:  # noqa: BLE001 - reported to waiters
            had_waiters = bool(self._callbacks)
            self._complete(exception=error)
            if not had_waiters:
                raise  # nobody joined: propagate out of kernel.run*()
            return
        if not isinstance(yielded, Waitable):
            error = TypeError(
                f"process {self.name} yielded {yielded!r}, not a Waitable"
            )
            self._body.close()
            self._complete(exception=error)
            raise error
        self._waiting_on = yielded
        yielded._start(self._kernel)
        yielded.add_done_callback(self._resume)

    def __repr__(self) -> str:
        state = "done" if self.done else "alive"
        return f"Process({self.name}, {state})"


def sleep(delay: float) -> Timeout:
    """Readability alias: ``yield sleep(0.5)``."""
    return Timeout(delay)
