"""NFC radio model.

NFC appears in the paper's architecture (Fig 3) as a second connection-less
context technology: contact-range, negligible idle cost, short tap
exchanges.  It exercises Omni's multi-context-technology paths (the
secondary-technology engagement algorithm) in tests and examples.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.energy.constants import NFC_EXCHANGE_MA, NFC_POLL_MA
from repro.net.addresses import NfcAddress
from repro.radio.base import Device, Radio
from repro.radio.frame import Frame, FrameKind, RadioKind
from repro.radio.medium import Medium

#: One tap exchange takes ~100 ms end to end.
NFC_EXCHANGE_DURATION_S = 0.1

#: NFC frames carry little data; cap mirrors NDEF-over-LLCP practice.
NFC_PAYLOAD_LIMIT = 255

NfcHandler = Callable[[bytes, NfcAddress, float], None]


class NfcRadio(Radio):
    """A contact-range radio supporting broadcast-style tap exchanges."""

    kind = RadioKind.NFC

    def __init__(self, device: Device, medium: Medium) -> None:
        super().__init__(device, medium)
        self.address = NfcAddress.random(
            device.kernel.rng.child("nfc-addr", device.name)
        )
        self._handler: Optional[NfcHandler] = None
        self._polling = False
        self.exchanges_sent = 0
        self.exchanges_heard = 0

    # -- listening ----------------------------------------------------------

    @property
    def polling(self) -> bool:
        """True while the radio is actively polling for taps."""
        return self._polling

    def start_polling(self, handler: NfcHandler) -> None:
        """Begin listening for exchanges; polling costs a small steady draw."""
        if not self.enabled:
            raise RuntimeError(f"{self.name}: cannot poll while disabled")
        if self._polling:
            raise RuntimeError(f"{self.name}: already polling")
        self._polling = True
        self._handler = handler
        self.meter.set_draw("nfc.poll", NFC_POLL_MA)

    def stop_polling(self) -> None:
        """Stop listening. Idempotent."""
        if not self._polling:
            return
        self._polling = False
        self._handler = None
        self.meter.set_draw("nfc.poll", 0.0)

    def disable(self) -> None:
        self.stop_polling()
        super().disable()

    # -- transmitting -----------------------------------------------------------

    def exchange(self, payload: bytes) -> int:
        """Send one tap exchange to whatever is in contact range."""
        if not self.enabled:
            raise RuntimeError(f"{self.name}: cannot exchange while disabled")
        if len(payload) > NFC_PAYLOAD_LIMIT:
            raise ValueError(
                f"NFC payload is {len(payload)}B; limit is {NFC_PAYLOAD_LIMIT}B"
            )
        self.exchanges_sent += 1
        self.meter.timed_draw(
            self._op_component("exchange"), NFC_EXCHANGE_MA, NFC_EXCHANGE_DURATION_S
        )
        frame = Frame(
            kind=FrameKind.NFC_EXCHANGE,
            sender=self,
            payload=payload,
            sent_at=self.kernel.now,
            airtime=NFC_EXCHANGE_DURATION_S,
        )
        return self.medium.broadcast(self, frame)

    # -- reception ------------------------------------------------------------

    def _accepts_frame(self, frame: Frame) -> bool:
        return (
            self.enabled
            and self._polling
            and frame.kind is FrameKind.NFC_EXCHANGE
        )

    @classmethod
    def accepts_mask(cls, radios, frame: Frame, now: float):
        if frame.kind is not FrameKind.NFC_EXCHANGE:
            return [False] * len(radios)
        return [radio.enabled and radio._polling for radio in radios]

    def _deliver(self, frame: Frame, distance: float) -> None:
        self.exchanges_heard += 1
        self.meter.timed_draw(
            self._op_component("rx"), NFC_EXCHANGE_MA, NFC_EXCHANGE_DURATION_S
        )
        handler = self._handler
        if handler is not None:
            handler(frame.payload, frame.sender.address, distance)
