"""BLE radio: advertising, scanning, energy."""

import pytest

from repro.energy.constants import BLE_ADVERTISE_MA, BLE_SCAN_MA
from repro.radio.ble import ADV_EVENT_DURATION_S, ADV_PAYLOAD_LIMIT
from repro.radio.frame import RadioKind


@pytest.fixture
def pair(make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=10)
    return a.radio(RadioKind.BLE), b.radio(RadioKind.BLE)


def test_periodic_advertising_delivers_each_interval(kernel, pair):
    tx, rx = pair
    heard = []
    rx.start_scanning(lambda payload, mac, dist: heard.append(kernel.now))
    tx.start_advertising(b"beacon", interval_s=0.5, jitter_fraction=0.0)
    kernel.run_until(2.6)
    # Events at 0, 0.5, 1.0, 1.5, 2.0, 2.5 (+1 ms airtime each).
    assert len(heard) == 6
    assert heard[0] == pytest.approx(0.001, abs=1e-4)


def test_payload_limit_enforced(pair):
    tx, _rx = pair
    with pytest.raises(ValueError, match="limit is 31"):
        tx.advertise_once(bytes(ADV_PAYLOAD_LIMIT + 1))


def test_advertising_set_update_changes_payload(kernel, pair):
    tx, rx = pair
    heard = []
    rx.start_scanning(lambda payload, mac, dist: heard.append(payload))
    adv = tx.start_advertising(b"old", interval_s=0.5, jitter_fraction=0.0)
    kernel.run_until(0.7)
    adv.update(payload=b"new")
    kernel.run_until(1.2)
    assert b"old" in heard and heard[-1] == b"new"


@pytest.mark.parametrize("interval_s", [0.0, -0.5, float("nan")])
def test_start_advertising_rejects_bad_interval_before_any_state(kernel, pair,
                                                                 interval_s):
    tx, _rx = pair
    with pytest.raises(ValueError, match="interval"):
        tx.start_advertising(b"x", interval_s=interval_s)
    assert tx._advertising_sets == []
    assert len(kernel.scheduler) == 0


def test_start_advertising_rejects_bad_jitter_before_any_state(kernel, pair):
    tx, _rx = pair
    with pytest.raises(ValueError, match="jitter_fraction"):
        tx.start_advertising(b"x", interval_s=0.5, jitter_fraction=1.5)
    assert tx._advertising_sets == []
    assert len(kernel.scheduler) == 0


@pytest.mark.parametrize("interval_s", [0.0, float("nan")])
def test_advertising_set_update_rejects_bad_interval_unchanged(pair, interval_s):
    tx, _rx = pair
    adv = tx.start_advertising(b"old", interval_s=0.5, jitter_fraction=0.0)
    with pytest.raises(ValueError, match="interval"):
        adv.update(payload=b"new", interval_s=interval_s)
    # Neither field moved, and the interval still matches the task's period.
    assert adv.payload == b"old"
    assert adv.interval_s == 0.5
    assert adv._task.period == 0.5


def test_advertising_set_stop(kernel, pair):
    tx, rx = pair
    heard = []
    rx.start_scanning(lambda payload, mac, dist: heard.append(payload))
    adv = tx.start_advertising(b"x", interval_s=0.5, jitter_fraction=0.0)
    kernel.run_until(1.1)
    count = len(heard)
    adv.stop()
    adv.stop()  # idempotent
    kernel.run_until(5.0)
    assert len(heard) == count


def test_multiple_concurrent_advertising_sets(kernel, pair):
    tx, rx = pair
    heard = set()
    rx.start_scanning(lambda payload, mac, dist: heard.add(payload))
    tx.start_advertising(b"one", interval_s=0.5)
    tx.start_advertising(b"two", interval_s=0.5)
    kernel.run_until(2.0)
    assert heard == {b"one", b"two"}


def test_sender_mac_is_reported(kernel, pair):
    tx, rx = pair
    macs = []
    rx.start_scanning(lambda payload, mac, dist: macs.append(mac))
    tx.advertise_once(b"id")
    kernel.run_until(0.1)
    assert macs == [tx.address]


def test_scanning_requires_enabled(kernel, pair):
    tx, rx = pair
    rx.disable()
    with pytest.raises(RuntimeError):
        rx.start_scanning(lambda *args: None)


def test_advertising_requires_enabled(pair):
    tx, _ = pair
    tx.disable()
    with pytest.raises(RuntimeError):
        tx.advertise_once(b"x")


def test_double_scan_rejected(pair):
    _, rx = pair
    rx.start_scanning(lambda *args: None)
    with pytest.raises(RuntimeError, match="already scanning"):
        rx.start_scanning(lambda *args: None)


def test_scan_energy_is_continuous_ble_scan_draw(kernel, pair):
    _, rx = pair
    meter = rx.device.meter
    snapshot = meter.snapshot()
    rx.start_scanning(lambda *args: None)
    kernel.run_until(10.0)
    # Relative to the WiFi standby on the same device.
    from repro.energy.constants import WIFI_STANDBY_MA

    assert meter.average_ma(since=snapshot) - WIFI_STANDBY_MA == pytest.approx(
        BLE_SCAN_MA, rel=0.01
    )


def test_advertise_energy_pulse(kernel, make_device):
    device = make_device("solo", radios=("ble",))
    radio = device.radio(RadioKind.BLE)
    snapshot = device.meter.snapshot()
    radio.advertise_once(b"x")
    kernel.run_until(1.0)
    expected = BLE_ADVERTISE_MA * ADV_EVENT_DURATION_S
    assert snapshot.charge_since() == pytest.approx(expected)


def test_disable_stops_everything(kernel, pair):
    tx, rx = pair
    rx.start_scanning(lambda *args: None)
    tx.start_advertising(b"x", interval_s=0.5)
    tx.disable()
    rx.disable()
    assert not rx.scanning
    assert rx.device.meter.active_components().get("ble.scan") is None
    kernel.run_until(2.0)
    assert tx.adv_events_sent <= 1


def test_stop_scanning_idempotent(pair):
    _, rx = pair
    rx.stop_scanning()
    rx.start_scanning(lambda *args: None)
    rx.stop_scanning()
    rx.stop_scanning()
    assert not rx.scanning
