"""Concrete technology adapters implementing the Communication Technology API."""

from repro.comm.ble_tech import BleBeaconTech
from repro.comm.nfc_tech import NfcTapTech
from repro.comm.wifi_multicast_tech import WifiMulticastTech
from repro.comm.wifi_tcp_tech import RESOLUTION_WAIT_S, WifiTcpTech

__all__ = [
    "BleBeaconTech",
    "NfcTapTech",
    "RESOLUTION_WAIT_S",
    "WifiMulticastTech",
    "WifiTcpTech",
]
