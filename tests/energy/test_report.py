"""Energy windows and reports."""

import pytest

from repro.energy.constants import WIFI_STANDBY_MA
from repro.energy.meter import EnergyMeter
from repro.energy.report import EnergyWindow


def test_report_requires_start(kernel):
    window = EnergyWindow(EnergyMeter(kernel))
    with pytest.raises(RuntimeError):
        window.report()


def test_relative_average_subtracts_floor(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("wifi.standby", WIFI_STANDBY_MA)
    window = EnergyWindow(meter)
    window.start()
    kernel.run_until(10.0)
    report = window.report()
    assert report.average_ma_absolute == pytest.approx(WIFI_STANDBY_MA)
    assert report.average_ma_relative == pytest.approx(0.0)


def test_negative_relative_when_radio_off(kernel):
    # The Table 4 SP/BLE case: no WiFi standby at all.
    meter = EnergyMeter(kernel)
    meter.set_draw("ble.scan", 7.0)
    window = EnergyWindow(meter)
    window.start()
    kernel.run_until(60.0)
    report = window.report()
    assert report.average_ma_relative == pytest.approx(7.0 - WIFI_STANDBY_MA)
    assert report.average_ma_relative < 0


def test_report_fields(kernel):
    meter = EnergyMeter(kernel, name="dev")
    window = EnergyWindow(meter)
    window.start()
    meter.set_draw("x", 30.0)
    kernel.run_until(4.0)
    report = window.report()
    assert report.device == "dev"
    assert report.window_s == pytest.approx(4.0)
    assert report.charge_mas == pytest.approx(120.0)
    assert report.average_ma_relative == pytest.approx(30.0 - WIFI_STANDBY_MA)
    assert report.peak_ma == pytest.approx(30.0)


def test_window_restart_resets(kernel):
    meter = EnergyMeter(kernel)
    window = EnergyWindow(meter)
    window.start()
    meter.set_draw("x", 100.0)
    kernel.run_until(5.0)
    meter.set_draw("x", 0.0)
    window.start()
    kernel.run_until(10.0)
    assert window.report().charge_mas == pytest.approx(0.0)
