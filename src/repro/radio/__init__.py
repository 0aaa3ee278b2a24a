"""Radio models: BLE, WiFi-Mesh, NFC, and the shared medium."""

from repro.radio.base import Device, Radio
from repro.radio.ble import ADV_PAYLOAD_LIMIT, AdvertisingSet, BleRadio
from repro.radio.frame import Frame, FrameKind, RadioKind
from repro.radio.medium import DEFAULT_RANGES, Medium
from repro.radio.nfc import NFC_PAYLOAD_LIMIT, NfcRadio
from repro.radio.wifi import (
    FAST_PEERING_S,
    FULL_CONNECT_S,
    SCAN_DURATION_S,
    TCP_HANDSHAKE_S,
    UnicastTransfer,
    WifiError,
    WifiRadio,
)

__all__ = [
    "ADV_PAYLOAD_LIMIT",
    "AdvertisingSet",
    "BleRadio",
    "DEFAULT_RANGES",
    "Device",
    "FAST_PEERING_S",
    "FULL_CONNECT_S",
    "Frame",
    "FrameKind",
    "Medium",
    "NFC_PAYLOAD_LIMIT",
    "NfcRadio",
    "Radio",
    "RadioKind",
    "SCAN_DURATION_S",
    "TCP_HANDSHAKE_S",
    "UnicastTransfer",
    "WifiError",
    "WifiRadio",
]
