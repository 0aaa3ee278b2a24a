"""Structured event tracing."""

from repro.trace.recorder import TraceEvent, TraceRecorder

__all__ = [
    "TraceEvent",
    "TraceRecorder",
]
