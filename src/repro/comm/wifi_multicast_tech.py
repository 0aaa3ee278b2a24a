"""WiFi-Mesh multicast UDP technology adapter (context and data).

Provided "as a proof of concept since it is one of the primary technologies
used by state of the art solutions for address sharing and service
discovery" (paper Sec 3.2).  Its costs are what make multicast impractical
for continuous discovery on power-constrained devices:

- carrying context requires joining (and staying joined to) a mesh;
- every periodic multicast costs a 40 ms radio-wake pulse and consumes
  channel airtime, depressing concurrent TCP throughput;
- bulk data rides the slow multicast pool (802.11 multicast anomaly).

Omni's low-frequency secondary listen uses monitor windows (no membership
required), so an idle Omni device pays almost nothing to keep an ear on
multicast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.codes import StatusCode
from repro.core.messages import Operation, SendRequest
from repro.core.packed import OmniPacked, PackedStructError
from repro.core.tech import TechType, TechnologyAdapter
from repro.net.addresses import MeshAddress
from repro.net.mesh import MeshNetwork
from repro.net.payload import VirtualPayload
from repro.radio.wifi import (
    FULL_CONNECT_S,
    MULTICAST_AIRTIME_S,
    SCAN_DURATION_S,
    WifiRadio,
)
from repro.sim.kernel import Kernel, PeriodicTask


@dataclass
class _ActiveContext:
    request: SendRequest
    task: PeriodicTask
    interval_s: float


class WifiMulticastTech(TechnologyAdapter):
    """Omni adapter for multicast UDP over WiFi-Mesh."""

    tech_type = TechType.WIFI_MULTICAST

    def __init__(self, kernel: Kernel, radio: WifiRadio, mesh: MeshNetwork) -> None:
        super().__init__(kernel)
        self.radio = radio
        self.mesh = mesh
        self._contexts: Dict[str, _ActiveContext] = {}
        self._listening = False
        self._joining = False
        self._join_waiters = []

    # -- contract ------------------------------------------------------------

    def low_level_address(self) -> MeshAddress:
        return self.radio.address

    @property
    def available(self) -> bool:
        return self.enabled and self.radio.enabled

    def _on_enable(self) -> None:
        if not self.radio.enabled:
            self.radio.enable()
        self._attach_radio_watch(self.radio)

    def _on_disable(self) -> None:
        for active in self._contexts.values():
            active.task.cancel()
            self.mesh.channel.clear_overhead(self._overhead_key(active.request.context_id))
        self._contexts.clear()
        self.stop_listening()

    # -- mesh membership --------------------------------------------------

    def _ensure_joined(self, callback) -> None:
        """Run ``callback`` once the radio is in the announce mesh."""
        if self.radio.mesh is self.mesh:
            callback()
            return
        self._join_waiters.append(callback)
        if self._joining:
            return
        self._joining = True

        def on_joined(waitable) -> None:
            self._joining = False
            waiters, self._join_waiters = self._join_waiters, []
            if waitable.exception is not None:
                return  # waiters are dropped; next request retries
            for waiter in waiters:
                waiter()

        self.radio.join(self.mesh, fast=False, peer_mode=False).add_done_callback(
            on_joined
        )

    # -- context listening -----------------------------------------------------

    def start_listening(self) -> None:
        if self._listening:
            return
        self._listening = True
        self._ensure_joined(lambda: self.radio.on_multicast(self._on_multicast))

    def stop_listening(self) -> None:
        if not self._listening:
            return
        self._listening = False
        self.radio.on_multicast(None)

    def listen_window(self, duration_s: float) -> None:
        # A monitor window needs no mesh membership — this is what keeps
        # Omni's secondary listening cheap (paper Sec 3.3).
        if self.radio.enabled:
            self.radio.open_monitor_window(duration_s, self._on_multicast)

    # -- requests ----------------------------------------------------------

    def _handle_request(self, request: SendRequest) -> None:
        handlers = {
            Operation.ADD_CONTEXT: self._handle_add_context,
            Operation.UPDATE_CONTEXT: self._handle_update_context,
            Operation.REMOVE_CONTEXT: self._handle_remove_context,
            Operation.SEND_DATA: self._handle_send_data,
        }
        handlers[request.operation](request)

    def _overhead_key(self, context_id: str) -> str:
        return f"omni-mcast.{self.radio.name}.{context_id}"

    def _handle_add_context(self, request: SendRequest) -> None:
        interval = float(request.params.get("interval_s", 1.0))

        def begin() -> None:
            if request.context_id in self._contexts:
                return
            task = self.kernel.every(
                interval,
                lambda: self._announce(request.context_id),
                start_after=0.0,
                jitter_fraction=0.02,
                rng=self.kernel.rng.child("mcast-ctx", self.radio.name,
                                          request.context_id),
            )
            self._contexts[request.context_id] = _ActiveContext(request, task, interval)
            self.mesh.channel.set_overhead(
                self._overhead_key(request.context_id), MULTICAST_AIRTIME_S / interval
            )
            self._respond(request, StatusCode.ADD_CONTEXT_SUCCESS, request.context_id)

        self._ensure_joined(begin)

    def _announce(self, context_id: str) -> None:
        active = self._contexts.get(context_id)
        if active is None or not self.radio.enabled or self.radio.mesh is not self.mesh:
            return
        assert active.request.packed is not None
        try:
            raw = active.request.packed.encode()
        except PackedStructError:
            return
        self.radio.send_multicast(raw)

    def _handle_update_context(self, request: SendRequest) -> None:
        active = self._contexts.get(request.context_id)
        if active is None:
            self._handle_add_context(request)
            return
        interval = float(request.params.get("interval_s", active.interval_s))
        active.request = request
        active.interval_s = interval
        active.task.set_period(interval)
        self.mesh.channel.set_overhead(
            self._overhead_key(request.context_id), MULTICAST_AIRTIME_S / interval
        )
        self._respond(request, StatusCode.UPDATE_CONTEXT_SUCCESS, request.context_id)

    def _handle_remove_context(self, request: SendRequest) -> None:
        active = self._contexts.pop(request.context_id, None)
        if active is None:
            self._respond(
                request,
                StatusCode.REMOVE_CONTEXT_FAILURE,
                (f"context {request.context_id!r} not on multicast", request.context_id),
            )
            return
        active.task.cancel()
        self.mesh.channel.clear_overhead(self._overhead_key(request.context_id))
        self._respond(request, StatusCode.REMOVE_CONTEXT_SUCCESS, request.context_id)

    def _handle_send_data(self, request: SendRequest) -> None:
        assert request.packed is not None
        packed = request.packed

        def begin() -> None:
            # Directed data over multicast needs the upgraded association,
            # like TCP: a multicast-only overlay attachment does not qualify
            # (see WifiRadio.peer_mode).  The upgrade cost is charged here.
            if not (self.radio.mesh is self.mesh and self.radio.peer_mode):
                self.kernel.spawn(
                    self._associate_then_send(request), name="mcast-data-assoc"
                )
                return
            self._transmit_data(request)

        self._ensure_joined(begin)

    def _associate_then_send(self, request: SendRequest):
        from repro.comm.wifi_tcp_tech import RESOLUTION_WAIT_S

        try:
            yield self.radio.scan(SCAN_DURATION_S)
            yield self.radio.join(self.mesh, fast=False, peer_mode=True)
        except Exception as error:  # noqa: BLE001 - queue-reported
            self._respond(
                request,
                StatusCode.SEND_DATA_FAILURE,
                (f"association failed: {error}", request.destination_omni),
            )
            return
        # The same soft-state refresh TCP pays after a scan-based join.
        yield self.kernel.timeout(RESOLUTION_WAIT_S)
        self._transmit_data(request)

    def _transmit_data(self, request: SendRequest) -> None:
        packed = request.packed
        payload = VirtualPayload(size=packed.wire_size, tag="omni", meta=(packed,))
        completion = self.radio.send_multicast_data(payload, label="omni-mcast-data")

        def on_done(waitable) -> None:
            if waitable.exception is not None:
                self._respond(
                    request,
                    StatusCode.SEND_DATA_FAILURE,
                    (str(waitable.exception), request.destination_omni),
                )
                return
            receivers = waitable.value
            reached = any(
                getattr(radio, "address", None) == request.destination
                for radio in receivers
            )
            if reached:
                self._respond(
                    request, StatusCode.SEND_DATA_SUCCESS, request.destination_omni
                )
            else:
                self._respond(
                    request,
                    StatusCode.SEND_DATA_FAILURE,
                    (
                        "destination did not receive the multicast",
                        request.destination_omni,
                    ),
                )

        completion.add_done_callback(on_done)

    # -- estimation --------------------------------------------------------

    def estimate_data_seconds(self, size: int, fast_hint: bool,
                              destination=None) -> Optional[float]:
        from repro.comm.wifi_tcp_tech import RESOLUTION_WAIT_S
        from repro.radio.wifi import MULTICAST_OP_DURATION_S

        rate = self.mesh.multicast_channel.effective_capacity
        transfer = MULTICAST_OP_DURATION_S + size / rate
        if self.radio.mesh is self.mesh and self.radio.peer_mode:
            return transfer
        return SCAN_DURATION_S + FULL_CONNECT_S + RESOLUTION_WAIT_S + transfer

    # -- reception ------------------------------------------------------------

    def _on_multicast(self, payload, source: MeshAddress) -> None:
        if isinstance(payload, VirtualPayload):
            packed = next(
                (item for item in payload.meta if isinstance(item, OmniPacked)), None
            )
        else:
            try:
                packed = OmniPacked.decode(payload)
            except PackedStructError:
                packed = None
        if packed is None:
            return
        self._received(packed, source, fast_peer_capable=False)
