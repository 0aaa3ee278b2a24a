"""Bluetooth Low Energy radio model.

Models the connection-less (beacon) operation Omni relies on:

- **Advertising**: periodic advertisement events carrying a ≤31-byte payload
  (legacy ADV_IND).  Each event energises all three advertising channels, so
  it costs a short pulse at the paper's BLE-advertise draw (8.2 mA) and is
  heard by any in-range scanner whose scan window covers it.
- **Scanning**: continuous by default (the paper's constant 7.0 mA
  BLE-scan draw); optional duty-cycled scanning for ablations, where each
  advertisement is caught with probability window/interval and the scan draw
  shrinks proportionally.
- **Data bursts**: connection-less data is carried by back-to-back
  advertisement frames at a fast interval, the way beacon-based exchanges
  work; fragmentation above 31 bytes lives in the technology adapter
  (:mod:`repro.comm.ble_tech`), not here.

Calibration notes (see EXPERIMENTS.md): an advertisement event's energy pulse
lasts 30 ms (radio wake + 3-channel train), which reproduces Table 4's
7.5 mA Omni BLE/BLE figure at a 500 ms beacon interval; data-burst frames are
spaced 40 ms apart, which reproduces the 82 ms BLE service latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.energy.constants import BLE_ADVERTISE_MA, BLE_SCAN_MA, BLE_STANDBY_MA
from repro.net.addresses import MacAddress
from repro.radio.base import Device, Radio
from repro.radio.frame import Frame, FrameKind, RadioKind
from repro.radio.medium import Medium
from repro.sim.kernel import PeriodicTask

#: Maximum advertisement payload (legacy advertising PDU), bytes.
ADV_PAYLOAD_LIMIT = 31

#: Duration of the energy pulse for one advertisement event (radio wake +
#: transmitting the train on channels 37/38/39).
ADV_EVENT_DURATION_S = 0.030

#: Over-the-air time of one advertisement frame (what delays delivery).
ADV_FRAME_AIRTIME_S = 0.001

#: Spacing between frames of a connection-less data burst.
DATA_FRAME_INTERVAL_S = 0.040

ScanHandler = Callable[[bytes, MacAddress, float], None]


@dataclass
class ScanConfig:
    """Scanning duty cycle; window == interval means continuous scanning."""

    window_s: float = 1.0
    interval_s: float = 1.0

    @property
    def duty(self) -> float:
        """Fraction of time the receiver is listening."""
        if self.interval_s <= 0:
            raise ValueError("scan interval must be > 0")
        return min(1.0, self.window_s / self.interval_s)


class AdvertisingSet:
    """One periodic advertisement registered with :meth:`BleRadio.start_advertising`."""

    def __init__(self, radio: "BleRadio", payload: bytes, interval_s: float) -> None:
        self.radio = radio
        self.payload = payload
        self.interval_s = interval_s
        self._task: Optional[PeriodicTask] = None
        self.active = False

    def update(self, payload: Optional[bytes] = None,
               interval_s: Optional[float] = None) -> None:
        """Change the payload and/or interval of a live advertisement."""
        if payload is not None:
            self.radio._check_payload(payload)
            self.payload = payload
        if interval_s is not None:
            if interval_s <= 0:
                raise ValueError(f"interval must be > 0, got {interval_s}")
            self.interval_s = interval_s
            if self._task is not None:
                self._task.set_period(interval_s)

    def stop(self) -> None:
        """Stop advertising this set. Idempotent."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self.active:
            self.active = False
            self.radio._advertising_sets.remove(self)


class BleRadio(Radio):
    """A BLE controller supporting concurrent advertising sets and scanning."""

    kind = RadioKind.BLE

    def __init__(self, device: Device, medium: Medium,
                 address: Optional[MacAddress] = None) -> None:
        super().__init__(device, medium)
        self.address = address or MacAddress.random(
            device.kernel.rng.child("ble-mac", device.name)
        )
        self._advertising_sets: List[AdvertisingSet] = []
        self._scan_handler: Optional[ScanHandler] = None
        self._scan_config = ScanConfig()
        # Duty is sampled once per start_scanning (the instant the meter
        # draw is set from it too) and cached flat: _deliver sits on the
        # per-receiver delivery hot path and must not recompute the
        # property half a million times per beacon round.
        self._scan_duty = 1.0
        # Struct-packed acceptance state: `enabled and scanning` folded to
        # one flag, maintained at the four transitions that can change it
        # (start/stop scanning; disable routes through stop_scanning) so
        # accepts_mask reads one attribute per radio.  _accepts_frame
        # stays the defining reference over the raw fields — the parity
        # suite churns both surfaces against each other.
        self._scan_active = False
        self._scan_rng = device.kernel.rng.child("ble-scan", device.name)
        self.adv_events_sent = 0
        self.frames_heard = 0

    # -- lifecycle --------------------------------------------------------

    def enable(self) -> None:
        super().enable()
        if BLE_STANDBY_MA > 0:
            self.meter.set_draw("ble.standby", BLE_STANDBY_MA)

    def disable(self) -> None:
        for adv_set in list(self._advertising_sets):
            adv_set.stop()
        self.stop_scanning()
        self.meter.set_draw("ble.standby", 0.0)
        super().disable()

    # -- advertising --------------------------------------------------------

    def _check_payload(self, payload: bytes) -> None:
        if len(payload) > ADV_PAYLOAD_LIMIT:
            raise ValueError(
                f"BLE advertisement payload is {len(payload)}B; "
                f"limit is {ADV_PAYLOAD_LIMIT}B (fragment at a higher layer)"
            )

    def start_advertising(self, payload: bytes, interval_s: float,
                          jitter_fraction: float = 0.05) -> AdvertisingSet:
        """Begin a periodic advertisement; returns a handle for update/stop.

        A small timer jitter de-synchronises advertisers, as mandated by the
        BLE specification (advDelay).
        """
        if not self.enabled:
            raise RuntimeError(f"{self.name}: cannot advertise while disabled")
        self._check_payload(payload)
        adv_set = AdvertisingSet(self, payload, interval_s)
        adv_set.active = True
        self._advertising_sets.append(adv_set)
        adv_set._task = self.kernel.every(
            interval_s,
            lambda: self._advertise_event(adv_set),
            start_after=0.0,
            jitter_fraction=jitter_fraction,
            rng=self._scan_rng,
        )
        return adv_set

    def advertise_once(self, payload: bytes) -> int:
        """Send a single advertisement event now; returns receiver count."""
        if not self.enabled:
            raise RuntimeError(f"{self.name}: cannot advertise while disabled")
        self._check_payload(payload)
        return self._transmit(payload)

    def _advertise_event(self, adv_set: AdvertisingSet) -> None:
        if not self.enabled or not adv_set.active:
            return
        self._transmit(adv_set.payload)

    def _transmit(self, payload: bytes) -> int:
        self.adv_events_sent += 1
        self.meter.timed_draw(
            self._op_component("adv"), BLE_ADVERTISE_MA, ADV_EVENT_DURATION_S
        )
        frame = Frame(
            kind=FrameKind.BLE_ADVERTISEMENT,
            sender=self,
            payload=payload,
            sent_at=self.kernel.now,
            airtime=ADV_FRAME_AIRTIME_S,
        )
        return self.medium.broadcast(self, frame)

    # -- scanning -----------------------------------------------------------

    @property
    def scanning(self) -> bool:
        """True while a scan handler is registered."""
        return self._scan_handler is not None

    def start_scanning(self, handler: ScanHandler,
                       config: Optional[ScanConfig] = None) -> None:
        """Listen for advertisements; ``handler(payload, sender_mac, distance)``.

        The scan draw is the BLE-scan current times the duty cycle, the
        time-averaged cost of duty-cycled scanning.
        """
        if not self.enabled:
            raise RuntimeError(f"{self.name}: cannot scan while disabled")
        if self._scan_handler is not None:
            raise RuntimeError(f"{self.name}: already scanning")
        self._scan_config = config or ScanConfig()
        self._scan_duty = self._scan_config.duty
        self._scan_handler = handler
        self._scan_active = True
        self.medium._accept_version += 1
        self.meter.set_draw("ble.scan", BLE_SCAN_MA * self._scan_duty)

    def stop_scanning(self) -> None:
        """Stop listening. Idempotent."""
        if self._scan_handler is None:
            return
        self._scan_handler = None
        self._scan_active = False
        self.medium._accept_version += 1
        self.meter.set_draw("ble.scan", 0.0)

    # -- reception ------------------------------------------------------------

    def _accepts_frame(self, frame: Frame) -> bool:
        return (
            self.enabled
            and frame.kind is FrameKind.BLE_ADVERTISEMENT
            and self._scan_handler is not None
        )

    @classmethod
    def accepts_mask(cls, radios, frame: Frame, now: float):
        if cls._accepts_frame is not BleRadio._accepts_frame:
            # A subclass redefined the scalar reference without a matching
            # batch form — fall back to the elementwise delegate so the
            # mask can never disagree with the override.
            return Radio.accepts_mask.__func__(cls, radios, frame, now)
        if frame.kind is not FrameKind.BLE_ADVERTISEMENT:
            return [False] * len(radios)
        return [radio._scan_active for radio in radios]

    def _deliver(self, frame: Frame, distance: float) -> None:
        duty = self._scan_duty
        if duty < 1.0 and not self._scan_rng.bernoulli(duty):
            return  # advertisement fell outside the scan window
        self.frames_heard += 1
        handler = self._scan_handler
        if handler is not None:
            handler(frame.payload, frame.sender.address, distance)

    @classmethod
    def deliver_batch(cls, radios, frame: Frame, distances) -> None:
        if cls._deliver is not BleRadio._deliver:
            # Scalar override without a batch twin: delegate elementwise
            # so the batch path can never diverge from the subclass.
            Radio.deliver_batch.__func__(cls, radios, frame, distances)
            return
        # The _deliver body, hoisted out of half a million call frames.
        # Effects and their order are byte-identical: duty roll first
        # (one draw per duty-cycled radio, ascending attach order),
        # frames_heard before the handler test, and the handler re-read
        # per radio — an earlier handler in this batch may have stopped a
        # later radio's scanning.
        payload = frame.payload
        sender_address = frame.sender.address
        for radio, distance in zip(radios, distances):
            if radio._scan_duty < 1.0 and not radio._scan_rng.bernoulli(
                radio._scan_duty
            ):
                continue
            radio.frames_heard += 1
            handler = radio._scan_handler
            if handler is not None:
                handler(payload, sender_address, distance)


#: BleRadio's acceptance formula reads ``enabled``, the frame kind, and the
#: scan handler — fields whose every mutation routes through enable/disable
#: or start/stop_scanning, all of which bump ``Medium._accept_version`` —
#: so the medium may elide the delivery-time re-check while the version
#: holds (see :attr:`repro.radio.base.Radio._accepts_versioned_ref`).
BleRadio._accepts_versioned_ref = BleRadio._accepts_frame
