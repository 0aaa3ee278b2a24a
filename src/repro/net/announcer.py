"""Periodic multicast discovery over WiFi-Mesh.

Encapsulates the application-level multicast discovery behaviour that the
paper attributes to the State of the Practice and State of the Art (and that
Omni's WiFi-multicast context adapter also uses when WiFi is the best
available context technology):

- join the mesh with a full connect and stay joined, because "discovery
  must handle constantly changing environments where the available networks
  cannot be assumed to be known a priori" (paper footnote 12);
- multicast an announcement packet every :data:`DISCOVERY_INTERVAL_S`;
- while announcing, consume a fraction of channel airtime, which depresses
  concurrent TCP throughput (the Table 5 crossover).

It never re-scans: the paper's measured systems show no periodic-scan
signature in their idle energy (Table 4's ~22 mA WiFi rows are explained
by the multicast transmissions alone).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.mesh import MeshNetwork
from repro.radio.wifi import MULTICAST_AIRTIME_S, WifiRadio
from repro.sim.kernel import PeriodicTask

#: The baselines' application-level discovery period, on every technology
#: they discover on: "every 500 ms" in the paper.
DISCOVERY_INTERVAL_S = 0.5

PayloadFactory = Callable[[], bytes]


class MulticastAnnouncer:
    """Joins a mesh and multicasts a discovery payload periodically."""

    def __init__(
        self,
        radio: WifiRadio,
        mesh: MeshNetwork,
        payload_factory: PayloadFactory,
    ) -> None:
        self.radio = radio
        self.mesh = mesh
        self.payload_factory = payload_factory
        self._announce_task: Optional[PeriodicTask] = None
        self._overhead_key = f"announce.{radio.name}"
        self.active = False
        self.announcements_sent = 0

    def start(self) -> None:
        """Join (full connect) and begin announcing. Idempotent."""
        if self.active:
            return
        self.active = True
        join = self.radio.join(self.mesh, fast=False, peer_mode=False)
        join.add_done_callback(lambda _w: self._begin_announcing())

    def _begin_announcing(self) -> None:
        if not self.active:
            return
        kernel = self.radio.kernel
        self.mesh.channel.set_overhead(
            self._overhead_key, MULTICAST_AIRTIME_S / DISCOVERY_INTERVAL_S
        )
        self._announce_task = kernel.every(
            DISCOVERY_INTERVAL_S,
            self._announce,
            start_after=0.0,
            jitter_fraction=0.02,
            rng=kernel.rng.child("announcer", self.radio.name),
        )

    def _announce(self) -> None:
        if not self.active or self.radio.mesh is not self.mesh:
            return
        self.announcements_sent += 1
        self.radio.send_multicast(self.payload_factory())

    def stop(self) -> None:
        """Stop announcing and release the channel overhead. Idempotent."""
        if not self.active:
            return
        self.active = False
        if self._announce_task is not None:
            self._announce_task.cancel()
            self._announce_task = None
        self.mesh.channel.clear_overhead(self._overhead_key)
