"""Energy reporting helpers shared by the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.energy.constants import WIFI_STANDBY_MA
from repro.energy.meter import EnergyMeter, EnergySnapshot


@dataclass
class EnergyReport:
    """Summary of one measurement window on one device.

    Attributes mirror the paper's reporting:

    - ``average_ma_relative``: mean draw minus the WiFi-standby floor, the
      paper's "average mA relative to baseline operation" (Table 4's "Total
      Energy (avg. mA)"; negative when WiFi was off, the SP/BLE row).
    - ``charge_mas``: total charge over the window (the paper derives
      "current dissipated", e.g. 6777 mAs for Omni at 100 KBps in Sec 4.3,
      by multiplying average draw by duration).
    """

    device: str
    window_s: float
    average_ma_absolute: float
    average_ma_relative: float
    charge_mas: float
    peak_ma: float


class EnergyWindow:
    """Measure a device's energy over a window delimited by start/stop."""

    def __init__(self, meter: EnergyMeter) -> None:
        self.meter = meter
        self._start: Optional[EnergySnapshot] = None

    def start(self) -> None:
        """Begin the measurement window at the current simulated instant."""
        self._start = self.meter.snapshot()
        self.meter.reset_peak()

    def report(self) -> EnergyReport:
        """Summarize the window from :meth:`start` until now."""
        if self._start is None:
            raise RuntimeError("EnergyWindow.report() called before start()")
        window = self._start.elapsed()
        absolute = self.meter.average_ma(since=self._start)
        return EnergyReport(
            device=self.meter.name,
            window_s=window,
            average_ma_absolute=absolute,
            average_ma_relative=absolute - WIFI_STANDBY_MA,
            charge_mas=self._start.charge_since(),
            peak_ma=self.meter.peak_ma,
        )
