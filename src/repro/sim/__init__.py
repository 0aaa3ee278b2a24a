"""Deterministic discrete-event simulation kernel.

This is the substrate replacing the paper's Raspberry Pi testbed: a virtual
clock, an event scheduler that keeps one FIFO list of events per instant
(so ties break in schedule order) and runs each large drain with the
already-built scene frozen out of the cycle collector, SimPy-style generator
processes, and the queue primitives that the Omni architecture's
queue-sharing contract (paper Sec 3.2) is built on.
"""

from repro.sim.errors import (
    Interrupt,
    ProcessAlreadyFinished,
    ProcessError,
    SchedulingInPastError,
    SimulationError,
)
from repro.sim.events import EventHandle
from repro.sim.kernel import Kernel, PeriodicTask
from repro.sim.process import (
    Completion,
    Process,
    Timeout,
    Waitable,
)
from repro.sim.queues import QueueGet, SimQueue
from repro.sim.scheduler import EventScheduler

__all__ = [
    "Completion",
    "EventHandle",
    "EventScheduler",
    "Interrupt",
    "Kernel",
    "PeriodicTask",
    "Process",
    "ProcessAlreadyFinished",
    "ProcessError",
    "QueueGet",
    "SchedulingInPastError",
    "SimQueue",
    "SimulationError",
    "Timeout",
    "Waitable",
]
