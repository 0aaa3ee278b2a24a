"""Shared fixtures for the test suite, and its one Hypothesis profile."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.net.mesh import MeshNetwork
from repro.phy.geometry import Position
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.radio.nfc import NfcRadio
from repro.radio.wifi import WifiRadio
from repro.sim.kernel import Kernel

# Every run draws the same examples (seeded from a hash of each test) and
# never reads the example database, so a property test cannot flake: a
# failure fails every run until fixed.  Pin a new find with @example.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def kernel():
    """A fresh simulation kernel with a fixed seed."""
    return Kernel(seed=1234)


@pytest.fixture
def world(kernel):
    """An empty world on the kernel clock."""
    return World(kernel)


@pytest.fixture
def medium(kernel, world):
    """A wireless medium over the world."""
    return Medium(kernel, world)


@pytest.fixture
def mesh(kernel):
    """A mesh network with default capacities."""
    return MeshNetwork(kernel, "test-mesh")


class DeviceFactory:
    """Creates fully-equipped devices at given positions."""

    def __init__(self, kernel, world, medium):
        self.kernel = kernel
        self.world = world
        self.medium = medium

    def __call__(self, name, x=0.0, y=0.0, radios=("ble", "wifi"), enable=True):
        node = self.world.add_node(name, position=Position(x, y))
        device = Device(self.kernel, node)
        if "ble" in radios:
            device.add_radio(BleRadio(device, self.medium))
        if "wifi" in radios:
            device.add_radio(WifiRadio(device, self.medium))
        if "nfc" in radios:
            device.add_radio(NfcRadio(device, self.medium))
        if enable:
            for radio in device.radios.values():
                radio.enable()
        return device


@pytest.fixture
def make_device(kernel, world, medium):
    """Factory fixture: ``make_device("a", x=0)`` → enabled Device."""
    return DeviceFactory(kernel, world, medium)
