"""State of the Art: a generalized multi-radio middleware (ubiSOAP-like).

Paper Sec 4: existing multi-radio middleware is dated, so the authors (and
we) implement "a generalized multi-radio approach that contains the relevant
features", with the defining paradigms of that generation:

- application-level discovery multicast **on all active technologies**
  every 500 ms (BLE advertisements *and* WiFi multicast) — this is why the
  SA row of Table 4 burns ~23 mA even when the application only uses BLE;
- no integration with low-level neighbor discovery: addresses learned at
  the application layer never enable fast peering, so WiFi data transfers
  pay the full scan + connect sequence on first contact;
- QoS-based technology selection for data (small payloads may ride BLE,
  bulk goes to WiFi), over pre-established channels only.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.apps.transport import (
    D2DTransport,
    MetadataCallback,
    ReceiveCallback,
    ResultCallback,
)
from repro.baselines.common import (
    BaselineDirectory,
    BleDiscovery,
    DataEnvelope,
    WifiUnicastPath,
    decode_data,
    decode_discovery,
    derive_device_id,
    encode_data,
    encode_discovery,
)
from repro.net.announcer import MulticastAnnouncer
from repro.net.ble_transport import MAX_MESSAGE_BYTES, find_scanning_peer
from repro.net.mesh import MeshNetwork
from repro.net.payload import Payload, VirtualPayload, payload_size
from repro.radio.base import Device
from repro.radio.frame import RadioKind

#: Payloads at or below this ride BLE when the config allows; bulk → WiFi.
SMALL_PAYLOAD_BYTES = 512


class SaSystem(D2DTransport):
    """The generalized multi-radio middleware baseline."""

    def __init__(
        self,
        device: Device,
        mesh: MeshNetwork,
        data_tech: str = "auto",  # "auto" | "ble" | "wifi"
    ) -> None:
        if data_tech not in ("auto", "ble", "wifi"):
            raise ValueError(f"unknown data_tech {data_tech!r}")
        self.device = device
        self.kernel = device.kernel
        self.mesh = mesh
        self.data_tech = data_tech
        self._id = derive_device_id(device)
        self.directory = BaselineDirectory(self.kernel)
        self._metadata = b""
        self._metadata_callbacks: List[MetadataCallback] = []
        self._receive_callbacks: List[ReceiveCallback] = []
        self.started = False

        self.has_ble = device.has_radio(RadioKind.BLE)
        self.has_wifi = device.has_radio(RadioKind.WIFI)
        self.ble_discovery: Optional[BleDiscovery] = None
        if self.has_ble:
            self.ble_discovery = BleDiscovery(self.kernel, device.radio(RadioKind.BLE))
        self.announcer: Optional[MulticastAnnouncer] = None
        self.unicast_path: Optional[WifiUnicastPath] = None
        if self.has_wifi:
            radio = device.radio(RadioKind.WIFI)
            self.announcer = MulticastAnnouncer(radio, mesh, self._wifi_discovery_payload)
            self.unicast_path = WifiUnicastPath(self.kernel, radio, mesh, self.directory)

    @property
    def local_id(self) -> int:
        return self._id

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bring up discovery on every active technology."""
        if self.started:
            return
        self.started = True
        if self.ble_discovery is not None:
            self.ble_discovery.on_message(self._on_ble_message)
            self.ble_discovery.start(self._ble_discovery_payload())
        if self.announcer is not None:
            radio = self.device.radio(RadioKind.WIFI)
            if not radio.enabled:
                radio.enable()
            radio.on_multicast(self._on_multicast)
            radio.on_unicast(self._on_unicast)
            self.announcer.start()

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        if self.ble_discovery is not None:
            self.ble_discovery.stop()
        if self.announcer is not None:
            self.announcer.stop()
            radio = self.device.radio(RadioKind.WIFI)
            radio.on_multicast(None)
            radio.on_unicast(None)

    # -- discovery payloads ------------------------------------------------

    def _ble_discovery_payload(self) -> bytes:
        # The BLE announcement carries the WiFi address too — the middleware
        # advertises everything everywhere (but learning an address at the
        # application layer does not make peering fast).  When application
        # metadata leaves no room in the 31-byte advertisement, the WiFi
        # address is dropped; peers then refresh it from the WiFi multicast
        # announcements instead.
        mesh_address = (
            self.device.radio(RadioKind.WIFI).address if self.has_wifi else None
        )
        payload = encode_discovery(self._id, mesh_address, self._metadata)
        if len(payload) > 27 and mesh_address is not None:
            payload = encode_discovery(self._id, None, self._metadata)
        return payload

    def _wifi_discovery_payload(self) -> bytes:
        mesh_address = self.device.radio(RadioKind.WIFI).address
        return encode_discovery(self._id, mesh_address, self._metadata)

    def set_metadata(self, payload: bytes) -> None:
        self._metadata = payload
        if self.started and self.ble_discovery is not None:
            self.ble_discovery.set_payload(self._ble_discovery_payload())
        # WiFi announcements pick up the new payload at the next interval.

    def on_metadata(self, callback: MetadataCallback) -> None:
        self._metadata_callbacks.append(callback)

    # -- data ----------------------------------------------------------------

    def send(self, peer_id: int, payload: Payload,
             on_result: Optional[ResultCallback] = None) -> None:
        def report(ok: bool, detail: str) -> None:
            if on_result is not None:
                on_result(ok, detail)

        entry = self.directory.entry(peer_id)
        if entry is None:
            self.kernel.call_in(0.0, lambda: report(False, "peer unknown"))
            return
        tech = self._choose_data_tech(payload)
        if tech == "ble":
            self._send_ble(entry, payload, report)
        elif tech == "wifi":
            assert self.unicast_path is not None
            self.unicast_path.send(entry, DataEnvelope(self._id, payload).wrap(), report)
        else:
            self.kernel.call_in(0.0, lambda: report(False, "no technology can carry this"))

    def _choose_data_tech(self, payload: Payload) -> Optional[str]:
        size = payload_size(payload)
        ble_ok = (
            self.ble_discovery is not None
            and not isinstance(payload, VirtualPayload)
            and size <= MAX_MESSAGE_BYTES
        )
        wifi_ok = self.unicast_path is not None
        if self.data_tech == "ble":
            return "ble" if ble_ok else None
        if self.data_tech == "wifi":
            return "wifi" if wifi_ok else None
        if ble_ok and size <= SMALL_PAYLOAD_BYTES and not wifi_ok:
            return "ble"
        if wifi_ok:
            return "wifi"
        return "ble" if ble_ok else None

    def _send_ble(self, entry, payload: bytes, report) -> None:
        assert self.ble_discovery is not None
        if entry.ble_address is None:
            self.kernel.call_in(0.0, lambda: report(False, "peer unknown on BLE"))
            return
        if find_scanning_peer(self.ble_discovery.radio, entry.ble_address) is None:
            self.kernel.call_in(0.0, lambda: report(False, "peer out of BLE range"))
            return
        burst = self.ble_discovery.burst.send(encode_data(self._id, payload))
        burst.add_done_callback(
            lambda waitable: report(
                waitable.exception is None,
                str(waitable.exception) if waitable.exception else "",
            )
        )

    def on_receive(self, callback: ReceiveCallback) -> None:
        self._receive_callbacks.append(callback)

    def peers(self) -> List[int]:
        return self.directory.peers()

    # -- reception ------------------------------------------------------------

    def _dispatch_metadata(self, device_id: int, metadata: bytes) -> None:
        for callback in list(self._metadata_callbacks):
            callback(device_id, metadata)

    def _dispatch_receive(self, device_id: int, payload) -> None:
        for callback in list(self._receive_callbacks):
            callback(device_id, payload)

    def _on_ble_message(self, raw: bytes, sender) -> None:
        discovery = decode_discovery(raw)
        if discovery is not None:
            device_id, mesh, metadata = discovery
            if device_id == self._id:
                return
            self.directory.observe(
                device_id, metadata, ble_address=sender, mesh_address=mesh, via_ble=True
            )
            self._dispatch_metadata(device_id, metadata)
            return
        data = decode_data(raw)
        if data is not None and data[0] != self._id:
            self._dispatch_receive(data[0], data[1])

    def _on_multicast(self, payload, source) -> None:
        if isinstance(payload, VirtualPayload):
            envelope = DataEnvelope.unwrap(payload)
            if envelope is not None and envelope.sender_id != self._id:
                self._dispatch_receive(envelope.sender_id, envelope.payload)
            return
        discovery = decode_discovery(payload)
        if discovery is None:
            return
        device_id, mesh, metadata = discovery
        if device_id == self._id:
            return
        self.directory.observe(
            device_id, metadata, mesh_address=mesh or source, via_ble=False
        )
        self._dispatch_metadata(device_id, metadata)

    def _on_unicast(self, payload, source) -> None:
        envelope = DataEnvelope.unwrap(payload)
        if envelope is None or envelope.sender_id == self._id:
            return
        if self.unicast_path is not None:
            # The inbound connection is bidirectional: replies are direct.
            self.unicast_path.grant_session(source)
        self._dispatch_receive(envelope.sender_id, envelope.payload)
