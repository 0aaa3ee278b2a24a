"""Mock infrastructure network.

The Disseminate experiment (paper Sec 4.3, Table 5) has devices download
pieces of a media file "from a mock infrastructure network using two
different data rates (100 KBps and 1000 KBps)".  This module is that mock: a
rate-limited download source, independent of the D2D mesh, that delivers
each download on a deterministic schedule and charges the client's WiFi
radio the appropriate receive energy.
"""

from __future__ import annotations

from repro.energy.meter import EnergyMeter
from repro.net.flow_energy import receiver_binder
from repro.sim.kernel import Kernel
from repro.sim.process import Completion
from repro.util.validation import check_positive


class InfrastructureServer:
    """A rate-limited content source reachable over the infrastructure path.

    Each client downloads at its own fixed ``rate_bps`` (the paper rates are
    per-device); downloads do not contend with the D2D mesh channel.  The
    client's radio pays receive energy for the duration at the duty implied
    by the rate.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.bytes_served = 0

    def download(self, meter: EnergyMeter, size: int, rate_bps: float) -> Completion:
        """Download ``size`` bytes as one blob; completes with ``[0]`` when done."""
        check_positive("rate_bps", rate_bps)
        completion = Completion()
        # Infrastructure reception shares the device's aggregate flow energy
        # accounting, so a concurrent D2D transfer does not double-bill the
        # radio's wake floor or the CPU saturation surcharge.
        binder = receiver_binder(meter)
        binder(rate_bps)

        def finish() -> None:
            self.bytes_served += size
            binder.release()
            completion.succeed([0])

        self.kernel.call_in(size / rate_bps, finish)
        return completion
