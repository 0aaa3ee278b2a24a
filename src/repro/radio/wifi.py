"""WiFi-Mesh radio model.

Models the 802.11 operations whose costs drive the paper's results:

- **Network scan** (~1.8 s at 129.2 mA): sweeping channels for mesh networks.
  Needed whenever a device does *not* already know where its peer is — the
  expensive step Omni's address beacon eliminates.
- **Peering / connect**: joining a mesh costs a full connect (~1 s at
  169 mA) when the network was found by scanning, but only a *fast peering*
  handshake (~12 ms) when the peer's mesh address and channel are already
  known (e.g. learned from an Omni address beacon over BLE).  This asymmetry
  is the source of Table 4's 16 ms vs 2793 ms latency gap.
- **Unicast TCP**: a fluid flow on the mesh's shared channel; endpoints draw
  rate-dependent current via :mod:`repro.net.flow_energy`.
- **Multicast UDP**: control packets cost a 40 ms radio-wake pulse at the
  WiFi-send draw and ~15 ms of channel airtime; bulk data over multicast
  rides the mesh's slow multicast pool (802.11 multicast anomaly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.energy.constants import (
    WIFI_CONNECT_MA,
    WIFI_RECEIVE_MA,
    WIFI_SCAN_MA,
    WIFI_SEND_MA,
    WIFI_STANDBY_MA,
)
from repro.net.addresses import MeshAddress
from repro.net.channel import FluidFlow
from repro.net.flow_energy import (
    multicast_receiver_binder,
    multicast_sender_binder,
    receiver_binder,
    sender_binder,
)
from repro.net.mesh import MeshNetwork
from repro.net.payload import Payload, payload_size
from repro.radio.base import Device, Radio
from repro.radio.frame import Frame, FrameKind, RadioKind
from repro.radio.medium import Medium
from repro.sim.process import Completion

# -- operation timings (calibration documented in EXPERIMENTS.md) ------------

SCAN_DURATION_S = 1.8  # channel sweep for unknown networks
FULL_CONNECT_S = 1.0  # authenticate + peer + address setup after a scan
FAST_PEERING_S = 0.008  # peering when the peer's address/channel are known
TCP_HANDSHAKE_S = 0.004  # connection establishment on an existing peering

MULTICAST_OP_DURATION_S = 0.040  # radio wake + contention + tx for one packet
MULTICAST_AIRTIME_S = 0.015  # channel airtime of one packet at basic rate
MULTICAST_RX_DURATION_S = 0.005  # receive pulse for one multicast packet

MulticastHandler = Callable[[bytes, MeshAddress], None]
UnicastHandler = Callable[[Payload, MeshAddress], None]


class WifiError(Exception):
    """Raised (via completion failures) when a WiFi operation cannot proceed."""


@dataclass
class UnicastTransfer:
    """Record of one unicast TCP transfer, completed or in flight."""

    source: MeshAddress
    destination: MeshAddress
    payload: Payload
    started_at: float
    completion: Completion = None  # set by the radio
    flow: Optional[FluidFlow] = None

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return payload_size(self.payload)


class WifiRadio(Radio):
    """An 802.11n radio supporting mesh, unicast TCP, and multicast UDP."""

    kind = RadioKind.WIFI

    def __init__(self, device: Device, medium: Medium) -> None:
        super().__init__(device, medium)
        self.address = MeshAddress.random(
            device.kernel.rng.child("mesh-addr", device.name)
        )
        self.mesh: Optional[MeshNetwork] = None
        # Multicast-overlay membership does not imply unicast peering:
        # sending TCP requires peer_mode, established by a peer-mode join or
        # granted mutually when a peer completes a transfer to this radio.
        # This mirrors 802.11s, where MBSS multicast participation and
        # per-station peering are separate state.
        self.peer_mode = False
        self._multicast_handler: Optional[MulticastHandler] = None
        self._monitor_handler: Optional[MulticastHandler] = None
        self._monitor_until = 0.0
        self._unicast_handler: Optional[UnicastHandler] = None
        self._busy_op: Optional[str] = None
        self.scans_performed = 0
        self.connects_performed = 0
        self.multicasts_sent = 0
        self.unicasts_sent = 0

    # -- lifecycle --------------------------------------------------------

    def enable(self) -> None:
        """Power on: the radio idles at the WiFi-standby draw from then on."""
        super().enable()
        self.meter.set_draw("wifi.standby", WIFI_STANDBY_MA)

    def disable(self) -> None:
        """Power off entirely; removes the standby draw and leaves the mesh."""
        self.leave()
        self.meter.set_draw("wifi.standby", 0.0)
        super().disable()

    def _require_enabled(self, operation: str) -> None:
        if not self.enabled:
            raise WifiError(f"{self.name}: {operation} requires the radio enabled")

    # -- discovery & association ------------------------------------------------

    def scan(self, duration_s: float = SCAN_DURATION_S) -> Completion:
        """Sweep channels; completes with the list of visible mesh networks.

        A mesh is visible when at least one of its members is in WiFi range.
        """
        self._require_enabled("scan")
        self.scans_performed += 1
        token = self.meter.draw(self._op_component("scan"), WIFI_SCAN_MA)
        completion = Completion()

        def finish() -> None:
            token.release()
            completion.succeed(self._visible_meshes())

        self.kernel.call_in(duration_s, finish)
        return completion

    def _visible_meshes(self) -> List[MeshNetwork]:
        meshes = []
        seen = set()
        for radio in self.medium.radios(RadioKind.WIFI):
            if radio is self or not radio.enabled:
                continue
            mesh = getattr(radio, "mesh", None)
            if mesh is None or id(mesh) in seen:
                continue
            if self.medium.in_range(self, radio):
                seen.add(id(mesh))
                meshes.append(mesh)
        meshes.sort(key=lambda mesh: mesh.name)
        return meshes

    def join(self, mesh: MeshNetwork, fast: bool = False,
             peer_mode: bool = True) -> Completion:
        """Attach to ``mesh``; ``fast=True`` when the target is already known.

        ``peer_mode=True`` establishes unicast peering (required to *send*
        TCP); ``peer_mode=False`` attaches for multicast only, the overlay
        mode the multicast announcers use.  Upgrading an existing
        multicast-only attachment to peer mode costs a full join again —
        overlay membership never shortcuts peering.

        Fast peering is what Omni's address beacon enables: the joiner knows
        the peer's mesh address and channel, so no scan or full association
        exchange is needed.
        """
        self._require_enabled("join")
        completion = Completion()
        already_attached = self.mesh is mesh
        if already_attached and (self.peer_mode or not peer_mode):
            self.kernel.call_in(0.0, lambda: completion.succeed(mesh))
            return completion
        if self.mesh is not None and not already_attached:
            self.leave()
        self.connects_performed += 1
        duration = FAST_PEERING_S if fast else FULL_CONNECT_S
        token = self.meter.draw(self._op_component("connect"), WIFI_CONNECT_MA)

        def finish() -> None:
            token.release()
            if not self.enabled:
                completion.fail(WifiError(f"{self.name}: disabled during join"))
                return
            self.mesh = mesh
            self.peer_mode = self.peer_mode or peer_mode
            mesh._join(self)
            completion.succeed(mesh)

        self.kernel.call_in(duration, finish)
        return completion

    def leave(self) -> None:
        """Leave the current mesh, if any. Idempotent."""
        if self.mesh is not None:
            self.mesh._leave(self)
            self.mesh = None
        self.peer_mode = False

    # -- unicast TCP -----------------------------------------------------------

    def on_unicast(self, handler: Optional[UnicastHandler]) -> None:
        """Register the receive handler: ``handler(payload, source_address)``."""
        self._unicast_handler = handler

    def send_unicast(self, destination: MeshAddress, payload: Payload,
                     label: str = "") -> UnicastTransfer:
        """Send ``payload`` to a mesh peer over TCP; returns a transfer record.

        The transfer's ``completion`` waitable succeeds when the last byte is
        delivered, or fails with :class:`WifiError` if the peer is not a
        reachable member of this radio's mesh (now or at completion time).
        """
        self._require_enabled("send_unicast")
        transfer = UnicastTransfer(
            source=self.address,
            destination=destination,
            payload=payload,
            started_at=self.kernel.now,
            completion=Completion(),
        )
        mesh = self.mesh
        problem = self._unicast_problem(mesh, destination)
        if problem is not None:
            self.kernel.call_in(0.0, lambda: transfer.completion.fail(WifiError(problem)))
            return transfer
        self.unicasts_sent += 1
        self.kernel.call_in(
            TCP_HANDSHAKE_S, lambda: self._start_unicast_flow(mesh, transfer, label)
        )
        return transfer

    def _unicast_problem(self, mesh: Optional[MeshNetwork],
                         destination: MeshAddress) -> Optional[str]:
        if mesh is None:
            return f"{self.name}: not joined to any mesh"
        if not self.peer_mode:
            return f"{self.name}: multicast-only attachment; peering required"
        peer = mesh.member_by_address(destination)
        if peer is None:
            return f"{self.name}: {destination} is not a member of {mesh.name}"
        if not peer.enabled:
            return f"{self.name}: peer {destination} radio is off"
        if not self.medium.in_range(self, peer):
            return f"{self.name}: peer {destination} is out of range"
        return None

    def _start_unicast_flow(self, mesh: MeshNetwork, transfer: UnicastTransfer,
                            label: str) -> None:
        problem = self._unicast_problem(self.mesh, transfer.destination)
        if self.mesh is not mesh:
            problem = problem or f"{self.name}: left {mesh.name} before transfer"
        if problem is not None:
            transfer.completion.fail(WifiError(problem))
            return
        peer = mesh.member_by_address(transfer.destination)
        flow = mesh.channel.start_flow(transfer.size, label or "unicast")
        transfer.flow = flow
        tx_binder = sender_binder(self.meter)
        rx_binder = receiver_binder(peer.meter)
        flow.on_rate_change(tx_binder)
        flow.on_rate_change(rx_binder)

        def on_flow_done(waitable) -> None:
            tx_binder.release()
            rx_binder.release()
            if waitable.exception is not None:
                transfer.completion.fail(waitable.exception)
                return
            problem_at_end = self._unicast_problem(self.mesh, transfer.destination)
            if problem_at_end is not None:
                transfer.completion.fail(WifiError(problem_at_end))
                return
            # A completed TCP transfer implies mutual peering: the receiver
            # can now unicast back without its own join sequence.
            peer.peer_mode = True
            transfer.completion.succeed(transfer)
            handler = peer._unicast_handler
            if handler is not None:
                handler(transfer.payload, transfer.source)

        flow.completion.add_done_callback(on_flow_done)

    # -- multicast UDP -----------------------------------------------------------

    def on_multicast(self, handler: Optional[MulticastHandler]) -> None:
        """Register (or clear) the multicast receive handler."""
        self._multicast_handler = handler

    @property
    def multicast_listening(self) -> bool:
        """True while a multicast handler is registered."""
        return self._multicast_handler is not None

    def open_monitor_window(self, duration_s: float,
                            handler: MulticastHandler) -> None:
        """Sniff multicast frames for ``duration_s`` without mesh membership.

        This is Omni's low-frequency secondary listen (paper Sec 3.3): the
        radio receives at full draw for the window, hearing any in-range
        multicast regardless of mesh, then goes back to standby.
        """
        self._require_enabled("open_monitor_window")
        self._monitor_handler = handler
        self._monitor_until = max(self._monitor_until, self.kernel.now + duration_s)
        self.meter.timed_draw(
            self._op_component("monitor"), WIFI_RECEIVE_MA, duration_s
        )

    @property
    def monitoring(self) -> bool:
        """True while a monitor window is open."""
        return self._monitor_handler is not None and self.kernel.now < self._monitor_until

    def send_multicast(self, payload: bytes) -> int:
        """Send one multicast control packet to the mesh.

        Costs the sender a 40 ms wake pulse at the WiFi-send draw and each
        listening receiver a short receive pulse.  Returns the number of
        receivers the packet was scheduled to.
        """
        self._require_enabled("send_multicast")
        if self.mesh is None:
            raise WifiError(f"{self.name}: multicast requires mesh membership")
        self.multicasts_sent += 1
        self.meter.timed_draw(
            self._op_component("mcast-tx"), WIFI_SEND_MA, MULTICAST_OP_DURATION_S
        )
        frame = Frame(
            kind=FrameKind.WIFI_MULTICAST,
            sender=self,
            payload=payload,
            sent_at=self.kernel.now,
            airtime=MULTICAST_AIRTIME_S,
            meta={"mesh": self.mesh.name},
        )
        return self.medium.broadcast(self, frame)

    def send_multicast_data(self, payload: Payload, label: str = "") -> Completion:
        """Bulk data over multicast: rides the slow multicast pool.

        Completes with the list of receiving radios once the last byte is
        out; every in-range listening mesh member receives the payload.
        """
        self._require_enabled("send_multicast_data")
        if self.mesh is None:
            raise WifiError(f"{self.name}: multicast requires mesh membership")
        mesh = self.mesh
        completion = Completion()
        receivers = [
            member
            for member in mesh.members
            if member is not self
            and member.multicast_listening
            and self.medium.in_range(self, member)
        ]
        flow = mesh.multicast_channel.start_flow(payload_size(payload), label or "mcast-data")
        tx_binder = multicast_sender_binder(self.meter)
        flow.on_rate_change(tx_binder)
        rx_bindings = []
        for receiver in receivers:
            binder = multicast_receiver_binder(receiver.meter)
            rx_bindings.append((receiver, binder))
            flow.on_rate_change(binder)

        def on_flow_done(waitable) -> None:
            tx_binder.release()
            for _receiver, binder in rx_bindings:
                binder.release()
            if waitable.exception is not None:
                completion.fail(waitable.exception)
                return
            delivered = []
            for receiver, _binder in rx_bindings:
                handler = receiver._multicast_handler
                if handler is not None and receiver.enabled:
                    handler(payload, self.address)
                    delivered.append(receiver)
            completion.succeed(delivered)

        flow.completion.add_done_callback(on_flow_done)
        return completion

    # -- reception ------------------------------------------------------------

    def _accepts_frame(self, frame: Frame) -> bool:
        if not self.enabled or frame.kind is not FrameKind.WIFI_MULTICAST:
            return False
        if self.monitoring:
            return True
        if self._multicast_handler is None:
            return False
        return self.mesh is not None and self.mesh.name == frame.meta.get("mesh")

    @classmethod
    def accepts_mask(cls, radios, frame: Frame, now: float):
        if frame.kind is not FrameKind.WIFI_MULTICAST:
            return [False] * len(radios)
        mesh_name = frame.meta.get("mesh")
        # `now` is the batch's time authority for the monitor-window bound
        # (strict <, matching the `monitoring` property at the same time).
        return [
            radio.enabled
            and (
                (radio._monitor_handler is not None and now < radio._monitor_until)
                or (
                    radio._multicast_handler is not None
                    and radio.mesh is not None
                    and radio.mesh.name == mesh_name
                )
            )
            for radio in radios
        ]

    def _deliver(self, frame: Frame, distance: float) -> None:
        in_group = (
            self._multicast_handler is not None
            and self.mesh is not None
            and self.mesh.name == frame.meta.get("mesh")
        )
        if in_group:
            self.meter.timed_draw(
                self._op_component("mcast-rx"), WIFI_RECEIVE_MA, MULTICAST_RX_DURATION_S
            )
            self._multicast_handler(frame.payload, frame.sender.address)
        elif self.monitoring and self._monitor_handler is not None:
            # Monitor-window reception: the window already paid its energy.
            self._monitor_handler(frame.payload, frame.sender.address)
