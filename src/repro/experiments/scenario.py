"""Scenario construction: one object wiring the whole simulated testbed."""

from __future__ import annotations

from typing import Collection, Optional

from repro.apps.transport import OmniTransport
from repro.baselines.art import SaSystem
from repro.baselines.practice import SpBleSystem, SpWifiSystem
from repro.comm.ble_tech import BleBeaconTech
from repro.comm.nfc_tech import NfcTapTech
from repro.comm.wifi_multicast_tech import WifiMulticastTech
from repro.comm.wifi_tcp_tech import WifiTcpTech
from repro.core.manager import OmniConfig, OmniManager
from repro.core.tech import TechType
from repro.net.infra import InfrastructureServer
from repro.net.mesh import MeshNetwork
from repro.phy.geometry import Position
from repro.phy.mobility import MobilityModel
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.medium import Medium
from repro.radio.nfc import NfcRadio
from repro.radio.wifi import WifiRadio
from repro.sim.kernel import Kernel

#: Every radio a device can carry, in attach order.  The medium draws RNG in
#: attach order, so a device's radios attach in this order whatever order
#: the caller names them in.
_RADIOS = ((RadioKind.BLE, BleRadio), (RadioKind.WIFI, WifiRadio),
           (RadioKind.NFC, NfcRadio))


class Testbed:
    """The simulated equivalent of the paper's Raspberry Pi testbed."""

    __test__ = False  # not a pytest collection target despite the name

    def __init__(self, seed: int = 0) -> None:
        self.kernel = Kernel(seed=seed)
        self.world = World(self.kernel)
        self.medium = Medium(self.kernel, self.world)
        self.mesh = MeshNetwork(self.kernel, "area-mesh")
        self.infra = InfrastructureServer(self.kernel)

    def add_device(
        self,
        name: str,
        position: Optional[Position] = None,
        mobility: Optional[MobilityModel] = None,
        radio_kinds: Optional[Collection[str]] = None,
    ) -> Device:
        """Place a device with the given radios (default: BLE + WiFi), all enabled.

        The radios physically present are powered, hence pay standby, even
        where Omni gets no adapter for them: the Table 4 BLE/BLE rows keep
        the WiFi radio in standby.
        """
        node = self.world.add_node(name, position=position, mobility=mobility)
        kinds = radio_kinds or {"ble", "wifi"}
        device = Device(self.kernel, node)
        for kind, radio_class in _RADIOS:
            if kind.value in kinds:
                device.add_radio(radio_class(device, self.medium)).enable()
        return device

    # -- system factories, one per column of the paper's comparisons ----------

    def omni(self, device: Device,
             techs: Optional[Collection[TechType]] = None) -> OmniTransport:
        """An Omni stack on ``device`` with the given adapter set."""
        return OmniTransport(self.omni_manager(device, techs))

    def omni_manager(self, device: Device,
                     techs: Optional[Collection[TechType]] = None,
                     omni_config: Optional[OmniConfig] = None) -> OmniManager:
        """A bare OmniManager (not enabled) with the adapters in ``techs``.

        The default is :data:`OMNI_TECHS_BLE_WIFI`.  Adapters register in
        BLE beacon, WiFi TCP, WiFi multicast, NFC tap order whatever order
        ``techs`` names them in.
        """
        if techs is None:
            techs = OMNI_TECHS_BLE_WIFI
        manager = OmniManager(device, config=omni_config)
        kernel = device.kernel
        if TechType.BLE_BEACON in techs:
            manager.register_adapter(BleBeaconTech(kernel, device.radio(RadioKind.BLE)))
        if TechType.WIFI_TCP in techs:
            manager.register_adapter(WifiTcpTech(kernel, device.radio(RadioKind.WIFI)))
        if TechType.WIFI_MULTICAST in techs:
            manager.register_adapter(
                WifiMulticastTech(kernel, device.radio(RadioKind.WIFI), self.mesh)
            )
        if TechType.NFC_TAP in techs:
            manager.register_adapter(NfcTapTech(kernel, device.radio(RadioKind.NFC)))
        return manager

    def sp_ble(self, device: Device) -> SpBleSystem:
        """State of the Practice, BLE-only (WiFi radio powered off)."""
        return SpBleSystem(device)

    def sp_wifi(self, device: Device, multicast_data: bool = False) -> SpWifiSystem:
        """State of the Practice, WiFi-only."""
        return SpWifiSystem(device, self.mesh, multicast_data=multicast_data)

    def sa(self, device: Device, data_tech: str = "auto") -> SaSystem:
        """State of the Art multi-radio middleware."""
        return SaSystem(device, self.mesh, data_tech=data_tech)


#: Adapter sets matching the Table 4 configuration rows.
OMNI_TECHS_BLE_ONLY = {TechType.BLE_BEACON}
OMNI_TECHS_BLE_WIFI = {
    TechType.BLE_BEACON,
    TechType.WIFI_TCP,
    TechType.WIFI_MULTICAST,
}
OMNI_TECHS_WIFI_ONLY = {TechType.WIFI_TCP, TechType.WIFI_MULTICAST}
