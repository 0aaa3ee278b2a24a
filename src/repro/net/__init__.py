"""Network substrate: addresses, channels, meshes, infrastructure."""

from repro.net.addresses import MacAddress, MeshAddress, NfcAddress
from repro.net.channel import FlowAborted, FluidChannel, FluidFlow
from repro.net.flow_energy import (
    FlowEnergyAccountant,
    FlowEnergyBinder,
    accountant_for,
    receiver_binder,
    sender_binder,
)
from repro.net.infra import InfrastructureServer
from repro.net.mesh import (
    MULTICAST_CAPACITY_BPS,
    UNICAST_CAPACITY_BPS,
    MeshNetwork,
)
from repro.net.payload import Payload, VirtualPayload, describe_payload, payload_size

__all__ = [
    "FlowAborted",
    "FlowEnergyAccountant",
    "FlowEnergyBinder",
    "accountant_for",
    "FluidChannel",
    "FluidFlow",
    "InfrastructureServer",
    "MULTICAST_CAPACITY_BPS",
    "MacAddress",
    "MeshAddress",
    "MeshNetwork",
    "NfcAddress",
    "Payload",
    "UNICAST_CAPACITY_BPS",
    "VirtualPayload",
    "describe_payload",
    "payload_size",
    "receiver_binder",
    "sender_binder",
]
