"""BLE beacon technology adapter.

Carries context (and small data) over connection-less BLE advertisements.
Every BLE transmission — periodic context, address beacons, and data bursts
alike — uses the shared fragment framing of
:mod:`repro.net.ble_transport`, so a single reassembly path feeds the Omni
receive queue.

Because BLE arrivals are connection-less neighbor-discovery traffic, the
adapter marks them ``fast_peer_capable``: addresses learned this way allow
the WiFi adapter to fast-peer instead of scanning (the heart of Omni's
latency win in Table 4).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.codes import StatusCode
from repro.core.messages import Operation, SendRequest
from repro.core.packed import OmniPacked, PackedStructError
from repro.core.tech import TechType, TechnologyAdapter
from repro.net.addresses import MacAddress
from repro.net.ble_transport import (
    BleBurstSender,
    BleReassembler,
    BleTransportError,
    burst_duration,
    find_scanning_peer,
    fragment,
)
from repro.net.payload import VirtualPayload
from repro.radio.ble import BleRadio
from repro.sim.kernel import Kernel


class BleBeaconTech(TechnologyAdapter):
    """Omni adapter for BLE advertisements."""

    tech_type = TechType.BLE_BEACON

    def __init__(self, kernel: Kernel, radio: BleRadio) -> None:
        super().__init__(kernel)
        self.radio = radio
        self._burst = BleBurstSender(radio)
        self._reassembler = BleReassembler(self._on_message)
        self._adv_sets: Dict[str, object] = {}  # context_id -> AdvertisingSet
        self._adv_message_ids: Dict[str, int] = {}
        self._next_adv_message_id = 0x8000  # distinct space from data bursts
        self._listening = False
        self._window_open = False

    # -- contract ------------------------------------------------------------

    def low_level_address(self) -> MacAddress:
        return self.radio.address

    @property
    def available(self) -> bool:
        return self.enabled and self.radio.enabled

    def _on_enable(self) -> None:
        if not self.radio.enabled:
            self.radio.enable()
        self._attach_radio_watch(self.radio)

    def _on_disable(self) -> None:
        for adv_set in self._adv_sets.values():
            adv_set.stop()
        self._adv_sets.clear()
        self.stop_listening()

    # -- context listening ------------------------------------------------

    def start_listening(self) -> None:
        if self._listening:
            return
        if not self.radio.enabled:
            return  # the radio is off; nothing to hear
        self._listening = True
        if not self.radio.scanning:
            self.radio.start_scanning(self._on_advertisement)

    def stop_listening(self) -> None:
        if not self._listening:
            return
        self._listening = False
        if not self._window_open:
            self.radio.stop_scanning()

    def listen_window(self, duration_s: float) -> None:
        if self._listening or self._window_open:
            return
        self._window_open = True
        self.radio.start_scanning(self._on_advertisement)

        def close() -> None:
            self._window_open = False
            if not self._listening and self.radio.scanning:
                self.radio.stop_scanning()

        self.kernel.call_in(duration_s, close)

    # -- requests -----------------------------------------------------------

    def _handle_request(self, request: SendRequest) -> None:
        handlers = {
            Operation.ADD_CONTEXT: self._handle_add_context,
            Operation.UPDATE_CONTEXT: self._handle_update_context,
            Operation.REMOVE_CONTEXT: self._handle_remove_context,
            Operation.SEND_DATA: self._handle_send_data,
            Operation.RELAY_CONTEXT: self._handle_relay,
        }
        handlers[request.operation](request)

    def _handle_relay(self, request: SendRequest) -> None:
        """One-shot re-advertisement of a relayed context (BLE-Mesh style)."""
        assert request.packed is not None
        try:
            raw = request.packed.encode()
        except PackedStructError as error:
            self._respond(request, StatusCode.SEND_DATA_FAILURE, (str(error), None))
            return
        if not self.radio.enabled:
            self._respond(
                request, StatusCode.SEND_DATA_FAILURE, ("BLE radio off", None)
            )
            return
        burst = self._burst.send(raw)
        burst.add_done_callback(
            lambda waitable: self._respond(
                request,
                StatusCode.SEND_DATA_SUCCESS
                if waitable.exception is None
                else StatusCode.SEND_DATA_FAILURE,
                None if waitable.exception is None else (str(waitable.exception), None),
            )
        )

    def _framed_context(self, request: SendRequest) -> Optional[bytes]:
        assert request.packed is not None
        try:
            raw = request.packed.encode()
            frames = fragment(self._adv_message_id_for(request.context_id), raw)
        except (PackedStructError, BleTransportError) as error:
            self._respond(
                request,
                request.failure_code,
                (str(error), request.failure_subject),
            )
            return None
        if len(frames) != 1:
            # Periodic context must fit one advertisement; bursts are for data.
            self._respond(
                request,
                request.failure_code,
                (
                    f"context of {len(raw)}B does not fit one BLE advertisement",
                    request.failure_subject,
                ),
            )
            return None
        return frames[0]

    def _adv_message_id_for(self, context_id: Optional[str]) -> int:
        key = context_id or "?"
        if key not in self._adv_message_ids:
            self._adv_message_ids[key] = self._next_adv_message_id
            self._next_adv_message_id = 0x8000 + ((self._next_adv_message_id + 1) % 0x8000)
        return self._adv_message_ids[key]

    def _handle_add_context(self, request: SendRequest) -> None:
        framed = self._framed_context(request)
        if framed is None:
            return
        interval = float(request.params.get("interval_s", 1.0))
        try:
            adv_set = self.radio.start_advertising(framed, interval_s=interval)
        except RuntimeError as error:
            # The radio was powered off underneath us: report, don't crash;
            # the manager will reassign to another technology.
            self._respond(
                request,
                StatusCode.ADD_CONTEXT_FAILURE,
                (str(error), request.context_id),
            )
            return
        self._adv_sets[request.context_id] = adv_set
        self._respond(request, StatusCode.ADD_CONTEXT_SUCCESS, request.context_id)

    def _handle_update_context(self, request: SendRequest) -> None:
        adv_set = self._adv_sets.get(request.context_id)
        if adv_set is None:
            # An update for a context this tech never carried: treat as add,
            # which happens when the manager reassigns after an update.
            self._handle_add_context(request)
            return
        framed = self._framed_context(request)
        if framed is None:
            return
        adv_set.update(payload=framed,
                       interval_s=float(request.params.get("interval_s", 1.0)))
        self._respond(request, StatusCode.UPDATE_CONTEXT_SUCCESS, request.context_id)

    def _handle_remove_context(self, request: SendRequest) -> None:
        adv_set = self._adv_sets.pop(request.context_id, None)
        if adv_set is None:
            self._respond(
                request,
                StatusCode.REMOVE_CONTEXT_FAILURE,
                (f"context {request.context_id!r} not on BLE", request.context_id),
            )
            return
        adv_set.stop()
        self._respond(request, StatusCode.REMOVE_CONTEXT_SUCCESS, request.context_id)

    def _handle_send_data(self, request: SendRequest) -> None:
        assert request.packed is not None
        destination = request.destination
        if find_scanning_peer(self.radio, destination) is None:
            self._respond(
                request,
                StatusCode.SEND_DATA_FAILURE,
                ("BLE peer not in range or not listening", request.destination_omni),
            )
            return
        try:
            raw = request.packed.encode()
        except PackedStructError as error:
            self._respond(
                request,
                StatusCode.SEND_DATA_FAILURE,
                (f"BLE cannot carry bulk payloads: {error}", request.destination_omni),
            )
            return
        burst = self._burst.send(raw)

        def on_done(waitable) -> None:
            if waitable.exception is not None:
                self._respond(
                    request,
                    StatusCode.SEND_DATA_FAILURE,
                    (str(waitable.exception), request.destination_omni),
                )
            else:
                self._respond(
                    request, StatusCode.SEND_DATA_SUCCESS, request.destination_omni
                )

        burst.add_done_callback(on_done)

    # -- estimation -----------------------------------------------------------

    def estimate_data_seconds(self, size: int, fast_hint: bool,
                              destination=None) -> Optional[float]:
        limit = self.traits.max_data_bytes
        if limit is not None and size > limit:
            return None
        return burst_duration(size)

    # -- reception ------------------------------------------------------------

    def _on_advertisement(self, payload: bytes, sender: MacAddress,
                          distance: float) -> None:
        try:
            self._reassembler.accept(payload, sender)
        except BleTransportError:
            pass  # not an Omni frame; other protocols share the band

    def _on_message(self, raw: bytes, sender: MacAddress) -> None:
        try:
            packed = OmniPacked.decode(raw)
        except PackedStructError:
            return
        self._received(packed, sender, fast_peer_capable=True)
