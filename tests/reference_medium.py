"""The scalar reference medium: the oracle of every delivery-log parity test.

:class:`ReferenceMedium` is :class:`~repro.radio.medium.Medium` with the
batch pipeline replaced by the loop that defines its semantics:

- a linear scan of ``medium.radios(kind)`` in attach order, sender
  excluded;
- the distance from ``Position.distance_to``, delivery decided by
  ``frame_delivered`` (one uniform draw per candidate with
  ``0 < p < 1``), then the receiver's ``_accepts_frame``;
- one arrival event per receiver, which re-checks ``_accepts_frame``
  when it fires and keeps the medium's frame counters.

The production medium must produce byte-identical delivery logs and leave
its RNG at the same stream position.  ``reachable_from`` is the same
linear scan.  To run the serial engine (or any module that builds its own
medium) on the oracle, monkeypatch that module's ``Medium`` name.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.phy.propagation import frame_delivered
from repro.radio.base import Radio
from repro.radio.frame import Frame
from repro.radio.medium import PROPAGATION_DELAY_S, Medium


class ReferenceMedium(Medium):
    """A medium that broadcasts one receiver at a time, scanning linearly."""

    def reachable_from(self, sender: Radio) -> List[Radio]:
        model = self.propagation[sender.kind]
        origin = sender.node.position
        return [
            radio
            for radio in self.radios(sender.kind)
            if radio is not sender
            and radio.enabled
            and model.in_range(origin.distance_to(radio.node.position))
        ]

    def broadcast(self, sender: Radio, frame: Frame) -> int:
        self.frames_sent += 1
        model = self.propagation[sender.kind]
        origin = sender.node.position
        delay = frame.airtime + PROPAGATION_DELAY_S
        scheduled = 0
        for receiver in self.radios(sender.kind):
            if receiver is sender:
                continue
            distance = origin.distance_to(receiver.node.position)
            if not frame_delivered(model, distance, self.rng):
                continue
            if not receiver._accepts_frame(frame):
                continue
            self.kernel.call_in(
                delay,
                partial(self._execute_delivery, receiver, frame, distance),
            )
            scheduled += 1
        return scheduled

    def _execute_delivery(self, receiver: Radio, frame: Frame,
                          distance: float) -> None:
        """Deliver one arrival after its airtime, re-checking acceptance."""
        if receiver._accepts_frame(frame):
            self.frames_delivered += 1
            if receiver.is_mirror:
                self.frames_cross_shard += 1
            receiver._deliver(frame, distance)
        else:
            self.frames_dropped += 1
