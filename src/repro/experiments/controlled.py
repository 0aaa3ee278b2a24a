"""The controlled comparison: paper Table 4 and Figures 4 & 5.

Two devices.  The responder offers a service; the initiator idles for 60
seconds while the underlying system performs its discovery (address and
service information every 500 ms), then performs a send/receive interaction
with the discovered service: a 30-byte request answered by a response of 30
bytes or 25 MB.  We measure, on the initiating device:

- total energy: average current draw over the run relative to the
  WiFi-standby floor (negative when the WiFi radio was off entirely);
- service latency: from initiating the interaction to receiving the
  response, in milliseconds.

The grid matches Table 4's rows and columns, including the N/A cells: no
system would pair WiFi context with BLE data, and a single-technology
State-of-the-Practice app has no BLE+WiFi combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.transport import D2DTransport
from repro.energy.report import EnergyWindow
from repro.experiments.scenario import (
    OMNI_TECHS_BLE_ONLY,
    OMNI_TECHS_BLE_WIFI,
    OMNI_TECHS_WIFI_ONLY,
    Testbed,
)
from repro.net.payload import VirtualPayload
from repro.phy.geometry import Position
from repro.util.units import MB, to_ms

WARMUP_S = 60.0
REQUEST_BYTES = 30
SMALL_RESPONSE_BYTES = 30
LARGE_RESPONSE_BYTES = 25 * MB
SERVICE_AD = b"svc"
DEVICE_SPACING_M = 10.0

#: (context tech, data tech, response size) rows of Table 4.
ROWS = [
    ("BLE", "BLE", SMALL_RESPONSE_BYTES),
    ("BLE", "WiFi", SMALL_RESPONSE_BYTES),
    ("BLE", "WiFi", LARGE_RESPONSE_BYTES),
    ("WiFi", "BLE", SMALL_RESPONSE_BYTES),
    ("WiFi", "WiFi", SMALL_RESPONSE_BYTES),
    ("WiFi", "WiFi", LARGE_RESPONSE_BYTES),
]

SYSTEMS = ["SP", "SA", "Omni"]


@dataclass
class Table4Cell:
    """One (row, system) measurement of Table 4."""

    context_tech: str
    data_tech: str
    response_bytes: int
    system: str
    energy_avg_ma: Optional[float]  # relative to WiFi standby; None = N/A
    latency_ms: Optional[float]


class _ServiceInteraction:
    """Responder offers a service; initiator requests and times the answer."""

    def __init__(self, testbed: Testbed, initiator: D2DTransport,
                 responder: D2DTransport, response_bytes: int) -> None:
        self.testbed = testbed
        self.kernel = testbed.kernel
        self.initiator = initiator
        self.responder = responder
        self.response_bytes = response_bytes
        self.service_peer: Optional[int] = None
        self.request_sent_at: Optional[float] = None
        self.response_received_at: Optional[float] = None
        self.failure: Optional[str] = None

    def arm(self) -> None:
        """Wire up both sides (before starting the systems)."""
        self.initiator.on_metadata(self._initiator_metadata)
        self.initiator.on_receive(self._initiator_receive)
        self.responder.on_receive(self._responder_receive)
        self.responder.start()
        self.responder.set_metadata(SERVICE_AD)
        self.initiator.start()
        # The initiator advertises no application context of its own: its
        # presence is carried by the system's discovery (Omni's address
        # beacon / the baselines' announcements).

    def _initiator_metadata(self, peer_id: int, payload: bytes) -> None:
        if payload == SERVICE_AD:
            self.service_peer = peer_id

    def _responder_receive(self, peer_id: int, payload) -> None:
        if isinstance(payload, bytes) and payload.startswith(b"REQ"):
            if self.response_bytes <= 64:
                response = b"RSP".ljust(self.response_bytes, b".")
            else:
                response = VirtualPayload(self.response_bytes, tag="service-response")
            self.responder.send(peer_id, response, None)

    def _initiator_receive(self, peer_id: int, payload) -> None:
        is_response = (
            isinstance(payload, bytes) and payload.startswith(b"RSP")
        ) or (
            isinstance(payload, VirtualPayload) and payload.tag == "service-response"
        )
        if is_response and self.response_received_at is None:
            self.response_received_at = self.kernel.now

    def interact(self) -> None:
        """Fire the request (call at the end of the warmup)."""
        if self.service_peer is None:
            self.failure = "service never discovered during warmup"
            return
        self.request_sent_at = self.kernel.now
        request = b"REQ".ljust(REQUEST_BYTES, b".")

        def on_result(ok: bool, detail: str) -> None:
            if not ok:
                self.failure = f"request failed: {detail}"

        self.initiator.send(self.service_peer, request, on_result)

    @property
    def latency_ms(self) -> Optional[float]:
        if self.request_sent_at is None or self.response_received_at is None:
            return None
        return to_ms(self.response_received_at - self.request_sent_at)


def _radio_kinds(system: str, context_tech: str) -> set:
    """Radios physically present in a configuration.

    The WiFi-context rows run without BLE hardware in play (the paper's
    three systems show near-identical energy there); all other rows carry
    both radios — even when an app leaves one idle in standby.
    """
    if context_tech == "WiFi":
        return {"wifi"}
    return {"ble", "wifi"}


def _build_pair(testbed: Testbed, system: str, context_tech: str, data_tech: str):
    """Create the initiator/responder transports for one grid cell."""
    radio_kinds = _radio_kinds(system, context_tech)
    initiator_device = testbed.add_device("initiator", position=Position(0.0, 0.0),
                                          radio_kinds=radio_kinds)
    responder_device = testbed.add_device(
        "responder", position=Position(DEVICE_SPACING_M, 0.0), radio_kinds=radio_kinds
    )
    if system == "Omni":
        if context_tech == "BLE" and data_tech == "BLE":
            techs = OMNI_TECHS_BLE_ONLY
        elif context_tech == "BLE":
            techs = OMNI_TECHS_BLE_WIFI
        else:
            techs = OMNI_TECHS_WIFI_ONLY
        return testbed.omni(initiator_device, techs), testbed.omni(responder_device, techs)
    if system == "SA":
        data = "ble" if data_tech == "BLE" else "wifi"
        return (
            testbed.sa(initiator_device, data_tech=data),
            testbed.sa(responder_device, data_tech=data),
        )
    # State of the Practice: one technology for everything.
    if context_tech == "BLE" and data_tech == "BLE":
        return testbed.sp_ble(initiator_device), testbed.sp_ble(responder_device)
    if context_tech == "WiFi" and data_tech == "WiFi":
        return testbed.sp_wifi(initiator_device), testbed.sp_wifi(responder_device)
    return None  # N/A cell


def run_cell(system: str, context_tech: str, data_tech: str, response_bytes: int,
             seed: int = 1) -> Table4Cell:
    """Run one (row, system) cell of Table 4 in a fresh simulation."""
    not_applicable = Table4Cell(
        context_tech, data_tech, response_bytes, system, None, None
    )
    if context_tech == "WiFi" and data_tech == "BLE":
        return not_applicable  # "no application would choose this combination"
    if system == "SP" and context_tech != data_tech:
        return not_applicable  # SP uses one technology for both
    testbed = Testbed(seed=seed)
    pair = _build_pair(testbed, system, context_tech, data_tech)
    if pair is None:
        return not_applicable
    initiator, responder = pair
    interaction = _ServiceInteraction(testbed, initiator, responder, response_bytes)
    meter = _meter_of(initiator)
    window = EnergyWindow(meter)
    window.start()
    interaction.arm()
    testbed.kernel.call_at(WARMUP_S, interaction.interact)
    deadline = WARMUP_S + 120.0
    step = 0.5
    time = WARMUP_S
    while time < deadline:
        time = min(deadline, time + step)
        testbed.kernel.run_until(time)
        if interaction.response_received_at is not None or interaction.failure:
            break
    report = window.report()
    return Table4Cell(
        context_tech=context_tech,
        data_tech=data_tech,
        response_bytes=response_bytes,
        system=system,
        energy_avg_ma=report.average_ma_relative,
        latency_ms=interaction.latency_ms,
    )


def _meter_of(transport: D2DTransport):
    """Find the device energy meter behind any of the three systems."""
    manager = getattr(transport, "manager", None)
    if manager is not None:
        return manager.device.meter
    return transport.device.meter


def iter_cells() -> List[tuple]:
    """The Table 4 grid as ``(system, context, data, bytes)`` tuples.

    Declaration order is the experiment's canonical result order; the
    parallel runner fans these out as independent jobs and merges results
    back in exactly this order.
    """
    return [
        (system, context_tech, data_tech, response_bytes)
        for context_tech, data_tech, response_bytes in ROWS
        for system in SYSTEMS
    ]


def run_table4(seed: int = 1) -> List[Table4Cell]:
    """Run the full Table 4 grid (energy: Fig 4; latency: Fig 5)."""
    return [
        run_cell(system, context_tech, data_tech, response_bytes, seed=seed)
        for system, context_tech, data_tech, response_bytes in iter_cells()
    ]
