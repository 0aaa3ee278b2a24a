"""Energy model for bulk flows.

Maps a device's *aggregate* transfer activity to radio current draws.  The
model has three physically-motivated terms:

1. **Airtime duty**: the tx/rx amplifier is active for the fraction of time
   it is moving bits, approximated as ``total_rate / reference`` per
   direction.
2. **Wake floor**: any non-zero traffic keeps the radio waking per packet,
   so even a trickle costs a small constant duty.  This reproduces the
   paper's Table 5 observation that the *slow* State-of-the-Practice
   transfer consumed more total charge despite a lower average draw.
3. **Saturation surcharge**: near channel capacity, the Pi's CPU and the
   USB WiFi adapter (Atheros AR9271) draw substantially more than the
   radio-only figures in Table 3; this term reproduces the high average
   draws of the saturated 25 MB interactions in Table 4.

Crucially, all three terms are computed from the device's **summed** flow
rates, not per flow: ten concurrent trickles wake one radio, not ten, and
the CPU saturates once.  Each device gets one :class:`FlowEnergyAccountant`
(kept on its meter) that owns three meter components:
``wifi.flow-tx``, ``wifi.flow-rx``, and ``wifi.flow-cpu``.

All constants are calibration inputs documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict

from repro.energy.constants import WIFI_RECEIVE_MA, WIFI_SEND_MA
from repro.energy.meter import EnergyMeter

REFERENCE_RATE_BPS = 3_000_000.0  # duty == 1 at this rate
WAKE_FLOOR_DUTY = 0.02  # duty of per-packet wakeups for any traffic
SATURATION_EXTRA_MA = 420.0  # CPU + USB adapter at full tilt
SATURATION_KNEE = 0.5  # surcharge ramps linearly above this duty
#: Multicast frames go out at the 1 Mbps basic rate, so each multicast byte
#: occupies ~6x the airtime of a unicast byte at the reference rate;
#: multicast flow rates are scaled by this factor before duty accounting.
MULTICAST_AIRTIME_SCALE = 6.0


def _duty(rate_bps: float) -> float:
    if rate_bps <= 0.0:
        return 0.0
    return min(1.0, rate_bps / REFERENCE_RATE_BPS + WAKE_FLOOR_DUTY)


class FlowEnergyAccountant:
    """Aggregates one device's flow rates into three meter components."""

    TX = "tx"
    RX = "rx"

    def __init__(self, meter: EnergyMeter) -> None:
        self.meter = meter
        # direction -> key -> bps.  Each direction's keys stay in the order
        # they were set, so ``total`` adds the same floats in the same order
        # however the two directions' updates interleave.
        self._rates: Dict[str, Dict[str, float]] = {self.TX: {}, self.RX: {}}

    def set_rate(self, direction: str, key: str, rate_bps: float) -> None:
        """Update one flow endpoint's rate; 0 removes it."""
        rates = self._rates.get(direction)
        if rates is None:
            raise ValueError(f"direction must be tx or rx, got {direction!r}")
        if rate_bps <= 0.0:
            rates.pop(key, None)
        else:
            rates[key] = rate_bps
        self._apply()

    def total(self, direction: str) -> float:
        """Summed rate for one direction, bytes/second."""
        return sum(self._rates[direction].values())

    def _apply(self) -> None:
        tx_total = self.total(self.TX)
        rx_total = self.total(self.RX)
        self.meter.set_draw("wifi.flow-tx", WIFI_SEND_MA * _duty(tx_total))
        self.meter.set_draw("wifi.flow-rx", WIFI_RECEIVE_MA * _duty(rx_total))
        combined_duty = _duty(tx_total + rx_total)
        surcharge = 0.0
        if combined_duty > SATURATION_KNEE:
            ramp = (combined_duty - SATURATION_KNEE) / (1.0 - SATURATION_KNEE)
            surcharge = SATURATION_EXTRA_MA * ramp
        self.meter.set_draw("wifi.flow-cpu", surcharge)


def accountant_for(meter: EnergyMeter) -> FlowEnergyAccountant:
    """The per-device accountant for ``meter`` (created on first use)."""
    accountant = meter.flow_accountant
    if accountant is None:
        accountant = meter.flow_accountant = FlowEnergyAccountant(meter)
    return accountant


class FlowEnergyBinder:
    """Adapts one flow endpoint's rate changes to the device accountant.

    ``rate_scale`` converts a goodput into an airtime-equivalent rate; 1 for
    unicast, :data:`MULTICAST_AIRTIME_SCALE` for basic-rate multicast.
    """

    _next_key = 0

    def __init__(self, meter: EnergyMeter, direction: str,
                 rate_scale: float = 1.0) -> None:
        self.accountant = accountant_for(meter)
        self.direction = direction
        self.rate_scale = rate_scale
        FlowEnergyBinder._next_key += 1
        self.key = f"flow-{FlowEnergyBinder._next_key}"

    def __call__(self, rate_bps: float) -> None:
        """Rate-change listener suitable for :meth:`FluidFlow.on_rate_change`."""
        self.accountant.set_rate(self.direction, self.key, rate_bps * self.rate_scale)

    def release(self) -> None:
        """Explicitly zero this endpoint (same as calling with 0)."""
        self.accountant.set_rate(self.direction, self.key, 0.0)


def sender_binder(meter: EnergyMeter) -> FlowEnergyBinder:
    """Binder for the transmitting endpoint of a unicast flow."""
    return FlowEnergyBinder(meter, FlowEnergyAccountant.TX)


def receiver_binder(meter: EnergyMeter) -> FlowEnergyBinder:
    """Binder for the receiving endpoint of a unicast flow."""
    return FlowEnergyBinder(meter, FlowEnergyAccountant.RX)


def multicast_sender_binder(meter: EnergyMeter) -> FlowEnergyBinder:
    """Binder for the transmitting endpoint of a basic-rate multicast flow."""
    return FlowEnergyBinder(
        meter, FlowEnergyAccountant.TX, rate_scale=MULTICAST_AIRTIME_SCALE
    )


def multicast_receiver_binder(meter: EnergyMeter) -> FlowEnergyBinder:
    """Binder for the receiving endpoint of a basic-rate multicast flow."""
    return FlowEnergyBinder(
        meter, FlowEnergyAccountant.RX, rate_scale=MULTICAST_AIRTIME_SCALE
    )
