"""WiFi-Mesh networks.

A :class:`MeshNetwork` groups WiFi radios that have peered with each other
(802.11s-style).  It owns two fluid channels: the unicast channel used by
TCP transfers and a multicast pool pinned to the lowest basic rate — the
802.11 multicast anomaly the paper leans on (Sec 3.2: "existing
implementations of multicast in 802.11 are slow").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.addresses import MeshAddress
from repro.net.channel import FluidChannel
from repro.sim.kernel import Kernel

if TYPE_CHECKING:
    from repro.radio.wifi import WifiRadio

#: Effective single-stream 802.11n TCP goodput on the testbed's 2.4 GHz
#: adapters.  Calibrated so a 25 MB transfer takes ~3.1 s (Table 4).
UNICAST_CAPACITY_BPS = 8_100_000.0

#: Effective multicast goodput: 802.11 multicast is transmitted at the
#: lowest basic rate with no link adaptation or aggregation.  Calibrated so
#: the Disseminate SP run takes ~230 s at the 100 KBps rate (Table 5).
MULTICAST_CAPACITY_BPS = 131_000.0


class MeshNetwork:
    """A named mesh; radios join it to exchange unicast/multicast traffic."""

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.channel = FluidChannel(kernel, UNICAST_CAPACITY_BPS, name=f"{name}.unicast")
        self.multicast_channel = FluidChannel(
            kernel, MULTICAST_CAPACITY_BPS, name=f"{name}.multicast"
        )
        self._members: Dict[MeshAddress, "WifiRadio"] = {}

    # -- membership --------------------------------------------------------

    @property
    def members(self) -> List["WifiRadio"]:
        """Radios currently peered into this mesh, in address order."""
        return [self._members[address] for address in sorted(self._members)]

    def __contains__(self, radio: "WifiRadio") -> bool:
        return self._members.get(radio.address) is radio

    def _join(self, radio: "WifiRadio") -> None:
        self._members[radio.address] = radio

    def _leave(self, radio: "WifiRadio") -> None:
        self._members.pop(radio.address, None)

    def member_by_address(self, address: MeshAddress) -> Optional["WifiRadio"]:
        """The member radio with ``address``, or None."""
        return self._members.get(address)

    def __repr__(self) -> str:
        return f"MeshNetwork({self.name!r}, members={len(self._members)})"
