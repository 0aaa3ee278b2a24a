"""Shared machinery for the baseline systems (paper Sec 4).

The State of the Practice and State of the Art implementations share:

- a tiny discovery/data wire codec (they are *not* Omni — no packed struct,
  no address beacon — just application-level announcements);
- a directory of peers heard via discovery, tracking per-technology
  addresses and which technology taught us each fact;
- the WiFi unicast data path: scan → join (peer mode) → optionally wait for
  the destination's next announcement (soft-state refresh) → transfer, with
  session reuse once peering exists;
- BLE discovery beaconing/scanning.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.address import OmniAddress
from repro.net.addresses import MacAddress, MeshAddress
from repro.net.announcer import DISCOVERY_INTERVAL_S
from repro.net.ble_transport import (
    BleBurstSender,
    BleReassembler,
    BleTransportError,
    fragment,
)
from repro.net.mesh import MeshNetwork
from repro.net.payload import Payload, VirtualPayload, payload_size
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.wifi import SCAN_DURATION_S, WifiRadio
from repro.sim.kernel import Kernel
from repro.sim.process import Completion

# -- identity ---------------------------------------------------------------


def derive_device_id(device: Device) -> int:
    """A 64-bit identity from interface addresses (same recipe as Omni's)."""
    addresses = [
        radio.address.to_bytes()
        for radio in device.radios.values()
        if getattr(radio, "address", None) is not None
    ]
    return OmniAddress.from_interface_addresses(addresses).value


# -- wire codec -----------------------------------------------------------

DISCOVERY_TYPE = 0x10
DATA_TYPE = 0x11

_DISCOVERY_HEAD = struct.Struct("!BQB")  # type, device id, flags
_FLAG_HAS_MESH = 0x01


def encode_discovery(device_id: int, mesh_address: Optional[MeshAddress],
                     metadata: bytes) -> bytes:
    """An application-level discovery announcement."""
    flags = _FLAG_HAS_MESH if mesh_address is not None else 0
    head = _DISCOVERY_HEAD.pack(DISCOVERY_TYPE, device_id, flags)
    mesh = mesh_address.to_bytes() if mesh_address is not None else b""
    return head + mesh + metadata


def decode_discovery(raw: bytes):
    """Parse a discovery announcement → (device_id, mesh_address, metadata)."""
    if len(raw) < _DISCOVERY_HEAD.size or raw[0] != DISCOVERY_TYPE:
        return None
    _, device_id, flags = _DISCOVERY_HEAD.unpack_from(raw)
    offset = _DISCOVERY_HEAD.size
    mesh = None
    if flags & _FLAG_HAS_MESH:
        mesh = MeshAddress.from_bytes(raw[offset:offset + MeshAddress.WIRE_BYTES])
        offset += MeshAddress.WIRE_BYTES
    return device_id, mesh, raw[offset:]


_DATA_HEAD = struct.Struct("!BQ")


def encode_data(device_id: int, payload: bytes) -> bytes:
    """A small baseline data message (BLE bursts)."""
    return _DATA_HEAD.pack(DATA_TYPE, device_id) + payload


def decode_data(raw: bytes):
    """Parse a data message → (device_id, payload)."""
    if len(raw) < _DATA_HEAD.size or raw[0] != DATA_TYPE:
        return None
    _, device_id = _DATA_HEAD.unpack_from(raw)
    return device_id, raw[_DATA_HEAD.size:]


@dataclass(frozen=True)
class DataEnvelope:
    """Carrier for baseline data over WiFi (bulk payloads stay virtual)."""

    sender_id: int
    payload: Payload

    @property
    def wire_size(self) -> int:
        return _DATA_HEAD.size + payload_size(self.payload)

    def wrap(self) -> VirtualPayload:
        return VirtualPayload(size=self.wire_size, tag="baseline", meta=(self,))

    @staticmethod
    def unwrap(payload) -> Optional["DataEnvelope"]:
        if isinstance(payload, VirtualPayload):
            return next(
                (item for item in payload.meta if isinstance(item, DataEnvelope)), None
            )
        decoded = decode_data(payload)
        if decoded is None:
            return None
        sender_id, raw = decoded
        return DataEnvelope(sender_id, raw)


# -- directory --------------------------------------------------------------


@dataclass
class DirectoryEntry:
    """Everything a baseline system knows about one peer."""

    device_id: int
    first_seen: float
    ble_address: Optional[MacAddress] = None
    mesh_address: Optional[MeshAddress] = None
    mesh_learned_via_ble: bool = False
    metadata: bytes = b""
    last_seen: float = 0.0


class BaselineDirectory:
    """Peers heard via application-level discovery."""

    def __init__(self, kernel: Kernel, staleness_s: float = 10.0) -> None:
        self.kernel = kernel
        self.staleness_s = staleness_s
        self._entries: Dict[int, DirectoryEntry] = {}
        self._announcement_waiters: Dict[int, List[Completion]] = {}

    def observe(
        self,
        device_id: int,
        metadata: bytes,
        ble_address: Optional[MacAddress] = None,
        mesh_address: Optional[MeshAddress] = None,
        via_ble: bool = False,
    ) -> DirectoryEntry:
        """Fold one announcement into the directory."""
        now = self.kernel.now
        entry = self._entries.get(device_id)
        if entry is None:
            entry = DirectoryEntry(device_id=device_id, first_seen=now)
            self._entries[device_id] = entry
        entry.last_seen = now
        entry.metadata = metadata
        if ble_address is not None:
            entry.ble_address = ble_address
        if mesh_address is not None:
            entry.mesh_address = mesh_address
            entry.mesh_learned_via_ble = entry.mesh_learned_via_ble or via_ble
        if not via_ble:
            waiters = self._announcement_waiters.pop(device_id, [])
            for waiter in waiters:
                waiter.succeed(entry)
        return entry

    def entry(self, device_id: int) -> Optional[DirectoryEntry]:
        """The fresh directory entry for a peer, or None."""
        entry = self._entries.get(device_id)
        if entry is None or self.kernel.now - entry.last_seen > self.staleness_s:
            return None
        return entry

    def peers(self) -> List[int]:
        """Ids of peers with fresh entries."""
        now = self.kernel.now
        return sorted(
            device_id
            for device_id, entry in self._entries.items()
            if now - entry.last_seen <= self.staleness_s
        )

    def next_wifi_announcement(self, device_id: int) -> Completion:
        """Completes at the peer's next non-BLE announcement (soft-state wait)."""
        waiter = Completion()
        self._announcement_waiters.setdefault(device_id, []).append(waiter)
        return waiter


# -- WiFi unicast data path ------------------------------------------------


class WifiUnicastPath:
    """The baselines' (and the paper's) expensive WiFi data sequence.

    Sessions are **per destination station**: the first send toward any peer
    pays scan → join in peer mode → (if the peer's mesh address was not
    learned over BLE) a wait for its next announcement.  Subsequent sends to
    the *same* peer ride the established connection, and an inbound transfer
    grants a session with its sender (replies are direct) — which is why
    Table 4's interaction latencies show exactly one discovery sequence.
    """

    def __init__(self, kernel: Kernel, radio: WifiRadio, mesh: MeshNetwork,
                 directory: BaselineDirectory) -> None:
        self.kernel = kernel
        self.radio = radio
        self.mesh = mesh
        self.directory = directory
        self._sessions: set = set()  # MeshAddress of stations peered with

    def grant_session(self, station: MeshAddress) -> None:
        """Record a live connection with ``station`` (e.g. from an inbound
        transfer), so sends back to it skip the discovery sequence."""
        self._sessions.add(station)

    def has_session(self, station: MeshAddress) -> bool:
        """True if sends to ``station`` can skip discovery right now."""
        return (
            station in self._sessions
            and self.radio.mesh is self.mesh
            and self.radio.peer_mode
        )

    def send(self, entry: DirectoryEntry, payload: Payload,
             on_result: Callable[[bool, str], None]) -> None:
        """Run the sequence as a process; report via ``on_result``."""
        self.kernel.spawn(self._process(entry, payload, on_result), name="wifi-path")

    def _process(self, entry: DirectoryEntry, payload: Payload, on_result):
        if entry.mesh_address is None:
            on_result(False, "peer WiFi address unknown")
            return
        if not self.has_session(entry.mesh_address):
            try:
                yield self.radio.scan(SCAN_DURATION_S)
                yield self.radio.join(self.mesh, fast=False, peer_mode=True)
            except Exception as error:  # noqa: BLE001
                on_result(False, f"association failed: {error}")
                return
            if not entry.mesh_learned_via_ble:
                # Soft-state refresh: wait for the peer's next announcement.
                waiter = self.directory.next_wifi_announcement(entry.device_id)
                yield waiter
        transfer = self.radio.send_unicast(entry.mesh_address, payload, label="baseline")
        try:
            yield transfer.completion
        except Exception as error:  # noqa: BLE001
            on_result(False, str(error))
            return
        self._sessions.add(entry.mesh_address)
        on_result(True, "")


# -- BLE discovery ----------------------------------------------------------


class BleDiscovery:
    """Advertise a discovery payload on BLE and scan for peers'."""

    def __init__(self, kernel: Kernel, radio: BleRadio) -> None:
        self.kernel = kernel
        self.radio = radio
        self.burst = BleBurstSender(radio)
        self._reassembler = BleReassembler(self._on_message)
        self._adv_set = None
        self._message_handlers: List[Callable[[bytes, MacAddress], None]] = []
        self._adv_message_id = 0x7F00

    def start(self, discovery_payload: bytes) -> None:
        """Begin advertising + scanning."""
        if not self.radio.enabled:
            self.radio.enable()
        if not self.radio.scanning:
            self.radio.start_scanning(self._on_advertisement)
        self.set_payload(discovery_payload)

    def set_payload(self, discovery_payload: bytes) -> None:
        """Replace the advertised discovery payload."""
        frames = fragment(self._adv_message_id, discovery_payload)
        if len(frames) != 1:
            raise BleTransportError(
                f"discovery payload of {len(discovery_payload)}B does not fit "
                "one BLE advertisement"
            )
        if self._adv_set is None:
            self._adv_set = self.radio.start_advertising(frames[0], DISCOVERY_INTERVAL_S)
        else:
            self._adv_set.update(payload=frames[0])

    def stop(self) -> None:
        """Stop advertising and scanning."""
        if self._adv_set is not None:
            self._adv_set.stop()
            self._adv_set = None
        if self.radio.scanning:
            self.radio.stop_scanning()

    def on_message(self, handler: Callable[[bytes, MacAddress], None]) -> None:
        """Register for reassembled BLE messages (discovery or data)."""
        self._message_handlers.append(handler)

    def _on_advertisement(self, payload: bytes, sender: MacAddress,
                          distance: float) -> None:
        try:
            self._reassembler.accept(payload, sender)
        except BleTransportError:
            pass

    def _on_message(self, raw: bytes, sender: MacAddress) -> None:
        for handler in list(self._message_handlers):
            handler(raw, sender)
