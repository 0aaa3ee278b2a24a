"""Testbed construction helpers."""

import pytest

from repro.core.tech import TechType
from repro.experiments.scenario import (
    OMNI_TECHS_BLE_ONLY,
    OMNI_TECHS_BLE_WIFI,
    OMNI_TECHS_WIFI_ONLY,
    Testbed,
)
from repro.phy.geometry import Position
from repro.radio.frame import RadioKind


def test_default_device_has_ble_and_wifi():
    testbed = Testbed(seed=1)
    device = testbed.add_device("a", position=Position(0, 0))
    assert device.has_radio("ble") and device.has_radio("wifi")
    assert device.radio("ble").enabled


def test_radio_kinds_selectable():
    testbed = Testbed(seed=1)
    device = testbed.add_device("a", position=Position(0, 0),
                                radio_kinds={"wifi"})
    assert not device.has_radio("ble")


def test_construction_order_ignores_argument_order():
    # The medium draws RNG in attach order, so radios attach, and adapters
    # register, in one fixed order whatever order the caller names them in.
    testbed = Testbed(seed=1)
    device = testbed.add_device("a", position=Position(0, 0),
                                radio_kinds=["nfc", "wifi", "ble"])
    manager = testbed.omni_manager(device, [
        TechType.NFC_TAP, TechType.WIFI_MULTICAST, TechType.WIFI_TCP,
        TechType.BLE_BEACON,
    ])
    assert list(device.radios) == [RadioKind.BLE, RadioKind.WIFI, RadioKind.NFC]
    assert list(manager.adapters) == [
        TechType.BLE_BEACON, TechType.WIFI_TCP, TechType.WIFI_MULTICAST,
        TechType.NFC_TAP,
    ]


def test_omni_manager_respects_tech_set():
    testbed = Testbed(seed=1)
    device = testbed.add_device("a", position=Position(0, 0))
    manager = testbed.omni_manager(device, OMNI_TECHS_BLE_ONLY)
    assert set(manager.adapters) == {TechType.BLE_BEACON}


def test_tech_set_constants():
    assert OMNI_TECHS_BLE_ONLY == {TechType.BLE_BEACON}
    assert TechType.WIFI_TCP in OMNI_TECHS_BLE_WIFI
    assert TechType.BLE_BEACON not in OMNI_TECHS_WIFI_ONLY


def test_system_factories_build_distinct_systems():
    testbed = Testbed(seed=2)
    device_a = testbed.add_device("a", position=Position(0, 0))
    device_b = testbed.add_device("b", position=Position(5, 0))
    device_c = testbed.add_device("c", position=Position(9, 0))
    sp = testbed.sp_ble(device_a)
    sa = testbed.sa(device_b)
    omni = testbed.omni(device_c)
    assert len({sp.local_id, sa.local_id, omni.local_id}) == 3


def test_same_seed_same_behaviour():
    def run(seed):
        testbed = Testbed(seed=seed)
        device_a = testbed.add_device("a", position=Position(0, 0))
        device_b = testbed.add_device("b", position=Position(5, 0))
        omni_a = testbed.omni_manager(device_a)
        omni_b = testbed.omni_manager(device_b)
        omni_a.enable()
        omni_b.enable()
        testbed.kernel.run_until(30.0)
        return device_a.meter.total_charge_mas()

    assert run(3) == run(3)
