"""State of the Practice: applications bound to a single technology.

Paper Sec 4: "we implement the applications to directly interact with the
underlying communication technologies", and "a natively implemented
application will use only one technology for both context and data".

- :class:`SpBleSystem` — BLE only.  The WiFi radio is powered off entirely,
  which is why the SP row of Table 4 shows *negative* relative energy.
- :class:`SpWifiSystem` — WiFi-Mesh only.  Discovery is hand-programmed
  application multicast every 500 ms; data goes over unicast TCP after the
  expensive scan/join/refresh sequence, or over slow multicast when
  ``multicast_data=True`` (the Disseminate SP mode).
"""

from __future__ import annotations

from typing import Callable, List, Optional

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
from repro.net.ble_transport import find_scanning_peer
from repro.net.mesh import MeshNetwork
from repro.net.payload import Payload, VirtualPayload, payload_size
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.wifi import WifiRadio


class SpBleSystem(D2DTransport):
    """Hand-coded BLE-only application networking."""

    def __init__(self, device: Device) -> None:
        self.device = device
        self.kernel = device.kernel
        self._id = derive_device_id(device)
        self.discovery = BleDiscovery(self.kernel, device.radio(RadioKind.BLE))
        self.directory = BaselineDirectory(self.kernel)
        self._metadata = b""
        self._metadata_callbacks: List[MetadataCallback] = []
        self._receive_callbacks: List[ReceiveCallback] = []
        self.started = False

    @property
    def local_id(self) -> int:
        return self._id

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        if self.device.has_radio(RadioKind.WIFI):
            wifi = self.device.radio(RadioKind.WIFI)
            if wifi.enabled:
                wifi.disable()  # the SP BLE app needs no WiFi at all
        self.discovery.on_message(self._on_ble_message)
        self.discovery.start(self._discovery_payload())

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        self.discovery.stop()

    def _discovery_payload(self) -> bytes:
        return encode_discovery(self._id, None, self._metadata)

    def set_metadata(self, payload: bytes) -> None:
        self._metadata = payload
        if self.started:
            self.discovery.set_payload(self._discovery_payload())

    def on_metadata(self, callback: MetadataCallback) -> None:
        self._metadata_callbacks.append(callback)

    def send(self, peer_id: int, payload: Payload,
             on_result: Optional[ResultCallback] = None) -> None:
        entry = self.directory.entry(peer_id)

        def report(ok: bool, detail: str) -> None:
            if on_result is not None:
                on_result(ok, detail)

        if entry is None or entry.ble_address is None:
            self.kernel.call_in(0.0, lambda: report(False, "peer unknown on BLE"))
            return
        if isinstance(payload, VirtualPayload):
            self.kernel.call_in(
                0.0, lambda: report(False, "BLE cannot carry bulk payloads")
            )
            return
        if find_scanning_peer(self.discovery.radio, entry.ble_address) is None:
            self.kernel.call_in(0.0, lambda: report(False, "peer out of BLE range"))
            return
        burst = self.discovery.burst.send(encode_data(self._id, payload))
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

    def _on_ble_message(self, raw: bytes, sender) -> None:
        discovery = decode_discovery(raw)
        if discovery is not None:
            device_id, mesh, metadata = discovery
            if device_id == self._id:
                return
            self.directory.observe(
                device_id, metadata, ble_address=sender, mesh_address=mesh, via_ble=True
            )
            for callback in list(self._metadata_callbacks):
                callback(device_id, metadata)
            return
        data = decode_data(raw)
        if data is not None:
            device_id, payload = data
            if device_id == self._id:
                return
            self.directory.observe(device_id, self.directory.entry(device_id).metadata
                                   if self.directory.entry(device_id) else b"",
                                   ble_address=sender, via_ble=True)
            for callback in list(self._receive_callbacks):
                callback(device_id, payload)


class SpWifiSystem(D2DTransport):
    """Hand-coded WiFi-Mesh-only application networking."""

    def __init__(self, device: Device, mesh: MeshNetwork,
                 multicast_data: bool = False) -> None:
        self.device = device
        self.kernel = device.kernel
        self.mesh = mesh
        self._id = derive_device_id(device)
        self.radio: WifiRadio = device.radio(RadioKind.WIFI)
        self.directory = BaselineDirectory(self.kernel)
        self.announcer = MulticastAnnouncer(self.radio, mesh, self._discovery_payload)
        self.unicast_path = WifiUnicastPath(self.kernel, self.radio, mesh, self.directory)
        self.multicast_data = multicast_data
        self._metadata = b""
        self._metadata_callbacks: List[MetadataCallback] = []
        self._receive_callbacks: List[ReceiveCallback] = []
        self.started = False

    @property
    def local_id(self) -> int:
        return self._id

    @property
    def is_broadcast(self) -> bool:
        return self.multicast_data

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        if not self.radio.enabled:
            self.radio.enable()
        self.radio.on_multicast(self._on_multicast)
        self.radio.on_unicast(self._on_unicast)
        self.announcer.start()

    def stop(self) -> None:
        if not self.started:
            return
        self.started = False
        self.announcer.stop()
        self.radio.on_multicast(None)
        self.radio.on_unicast(None)

    def _discovery_payload(self) -> bytes:
        return encode_discovery(self._id, self.radio.address, self._metadata)

    def set_metadata(self, payload: bytes) -> None:
        self._metadata = payload  # next announcement carries it

    def on_metadata(self, callback: MetadataCallback) -> None:
        self._metadata_callbacks.append(callback)

    def send(self, peer_id: int, payload: Payload,
             on_result: Optional[ResultCallback] = None) -> None:
        def report(ok: bool, detail: str) -> None:
            if on_result is not None:
                on_result(ok, detail)

        entry = self.directory.entry(peer_id)
        if entry is None:
            self.kernel.call_in(0.0, lambda: report(False, "peer unknown"))
            return
        envelope = DataEnvelope(self._id, payload)
        if self.multicast_data:
            completion = self.radio.send_multicast_data(
                envelope.wrap(), label="sp-mcast-data"
            )

            def on_done(waitable) -> None:
                if waitable.exception is not None:
                    report(False, str(waitable.exception))
                    return
                reached = any(
                    getattr(radio, "address", None) == entry.mesh_address
                    for radio in waitable.value
                )
                report(reached, "" if reached else "destination missed the multicast")

            completion.add_done_callback(on_done)
            return
        self.unicast_path.send(entry, envelope.wrap(), report)

    def on_receive(self, callback: ReceiveCallback) -> None:
        self._receive_callbacks.append(callback)

    def peers(self) -> List[int]:
        return self.directory.peers()

    # -- reception ------------------------------------------------------------

    def _on_multicast(self, payload, source) -> None:
        if isinstance(payload, VirtualPayload):
            envelope = DataEnvelope.unwrap(payload)
            if envelope is not None and envelope.sender_id != self._id:
                for callback in list(self._receive_callbacks):
                    callback(envelope.sender_id, envelope.payload)
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
        for callback in list(self._metadata_callbacks):
            callback(device_id, metadata)

    def _on_unicast(self, payload, source) -> None:
        envelope = DataEnvelope.unwrap(payload)
        if envelope is None or envelope.sender_id == self._id:
            return
        # The inbound connection is bidirectional: replies skip discovery.
        self.unicast_path.grant_session(source)
        for callback in list(self._receive_callbacks):
            callback(envelope.sender_id, envelope.payload)
