"""Fluid-flow channel model.

Bulk transfers are modeled as *fluid flows* sharing a channel's capacity
(processor sharing), the standard analytic model for TCP flows on one
802.11 channel.  The channel also tracks *overhead sources* — fractions of
airtime consumed by other traffic (e.g. periodic multicast discovery
beacons, paper Sec 4.3) — which depress the capacity available to flows.
This is the mechanism behind Table 5's crossover: the State of the Art's
periodic multicast packets "impede the overall transfer rate".

The model is event-driven and exact: whenever the flow set or overhead
changes, each flow's progress is integrated and its completion rescheduled.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.events import EventHandle
from repro.sim.kernel import Kernel
from repro.sim.process import Completion
from repro.util.validation import check_non_negative, check_positive

#: Overheads are clamped so a flooded channel still trickles, mirroring how
#: 802.11 sources share even a congested channel rather than starving.
MAX_OVERHEAD_FRACTION = 0.95

#: A flow with less than this many bytes left is complete.  Float rounding
#: when integrating rate × elapsed can leave residues around 1e-9 bytes; a
#: half-byte threshold is far above any such residue and below any real
#: payload granularity, so completion times stay exact to machine precision.
COMPLETION_EPSILON_BYTES = 0.5

RateListener = Callable[[float], None]


class FlowAborted(Exception):
    """Raised into waiters when a flow is cancelled before completing."""


class FluidFlow:
    """One bulk transfer in flight on a :class:`FluidChannel`."""

    def __init__(self, channel: "FluidChannel", size: int, label: str) -> None:
        self.channel = channel
        self.size = size
        self.label = label
        self.remaining = float(size)
        self.rate = 0.0
        self.started_at = channel.kernel.now
        self.completion = Completion()
        self._rate_listeners: List[RateListener] = []

    @property
    def done(self) -> bool:
        """True once the flow completed or was aborted."""
        return self.completion.done

    @property
    def transferred(self) -> float:
        """Bytes moved so far (exact as of the channel's last event)."""
        return self.size - self.remaining

    def on_rate_change(self, listener: RateListener) -> None:
        """Register ``listener(rate_bytes_per_s)``; also called with 0 at end."""
        self._rate_listeners.append(listener)
        listener(self.rate)

    def abort(self) -> None:
        """Cancel the transfer; waiters see :class:`FlowAborted`."""
        self.channel._abort_flow(self)

    def _set_rate(self, rate: float) -> None:
        if rate == self.rate:
            return
        self.rate = rate
        for listener in self._rate_listeners:
            listener(rate)

    def __repr__(self) -> str:
        return (
            f"FluidFlow({self.label!r}, {self.transferred:.0f}/{self.size}B "
            f"@ {self.rate:.0f}B/s)"
        )


class FluidChannel:
    """A shared-capacity channel with processor-sharing flows."""

    def __init__(self, kernel: Kernel, capacity_bps: float, name: str = "channel") -> None:
        check_positive("capacity_bps", capacity_bps)
        self.kernel = kernel
        self.capacity_bps = capacity_bps
        self.name = name
        self._flows: List[FluidFlow] = []
        self._overheads: Dict[str, float] = {}
        self._next_completion: Optional[EventHandle] = None
        self._last_integrated = kernel.now
        self.completed_flows = 0

    # -- capacity ---------------------------------------------------------

    @property
    def overhead_fraction(self) -> float:
        """Total fraction of airtime consumed by overhead sources."""
        return min(MAX_OVERHEAD_FRACTION, sum(self._overheads.values()))

    @property
    def effective_capacity(self) -> float:
        """Capacity available to flows after overhead, bytes/second."""
        return self.capacity_bps * (1.0 - self.overhead_fraction)

    def set_overhead(self, key: str, fraction: float) -> None:
        """Declare that source ``key`` consumes ``fraction`` of airtime.

        Setting 0 removes the source.  Typical use: a middleware that
        multicasts a discovery packet of airtime ``a`` every ``p`` seconds
        registers ``fraction = a / p`` while active.
        """
        check_non_negative("fraction", fraction)
        self._integrate()
        if fraction == 0.0:
            self._overheads.pop(key, None)
        else:
            self._overheads[key] = fraction
        self._rebalance()

    def clear_overhead(self, key: str) -> None:
        """Remove an overhead source. Idempotent."""
        self.set_overhead(key, 0.0)

    # -- flows -------------------------------------------------------------

    def start_flow(self, size: int, label: str = "") -> FluidFlow:
        """Begin transferring ``size`` bytes; completion is a waitable.

        Zero-byte flows complete immediately (still asynchronously, at the
        current instant, to keep callback ordering uniform).
        """
        check_non_negative("size", size)
        self._integrate()
        flow = FluidFlow(self, size, label or self.kernel.ids.next("flow"))
        if size == 0:
            self.kernel.call_in(0.0, lambda: self._finish_flow(flow))
            return flow
        self._flows.append(flow)
        self._rebalance()
        return flow

    def _abort_flow(self, flow: FluidFlow) -> None:
        if flow.done:
            return
        self._integrate()
        if flow in self._flows:
            self._flows.remove(flow)
        flow._set_rate(0.0)
        flow.completion.fail(FlowAborted(flow.label))
        self._rebalance()

    def _finish_flow(self, flow: FluidFlow) -> None:
        if flow.done:
            return
        flow.remaining = 0.0
        flow._set_rate(0.0)
        self.completed_flows += 1
        flow.completion.succeed(flow)

    # -- internals ------------------------------------------------------------

    def _integrate(self) -> None:
        """Advance every flow's progress to the current instant."""
        now = self.kernel.now
        elapsed = now - self._last_integrated
        self._last_integrated = now
        if elapsed <= 0:
            return
        for flow in self._flows:
            flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)

    def _rebalance(self) -> None:
        """Recompute per-flow rates and reschedule the next completion."""
        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None

        finished = [flow for flow in self._flows if flow.remaining <= COMPLETION_EPSILON_BYTES]
        if finished:
            self._flows = [flow for flow in self._flows if flow.remaining > COMPLETION_EPSILON_BYTES]
            for flow in finished:
                self._finish_flow(flow)

        if not self._flows:
            return

        share = self.effective_capacity / len(self._flows)
        soonest: Optional[float] = None
        for flow in self._flows:
            flow._set_rate(share)
            eta = flow.remaining / share
            if soonest is None or eta < soonest:
                soonest = eta
        assert soonest is not None
        self._next_completion = self.kernel.call_in(soonest, self._on_completion_due)

    def _on_completion_due(self) -> None:
        self._next_completion = None
        self._integrate()
        self._rebalance()

    def __repr__(self) -> str:
        return (
            f"FluidChannel({self.name!r}, {len(self._flows)} flows, "
            f"eff={self.effective_capacity:.0f}B/s)"
        )
