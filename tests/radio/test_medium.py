"""The wireless medium: range gating and delivery."""

import gc
import weakref

import pytest

from repro.phy.geometry import Position
from repro.phy.propagation import UnitDisk
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.medium import DEFAULT_RANGES, Medium
from repro.sim.kernel import Kernel


def _scan_all(device, heard):
    device.radios[RadioKind.BLE].start_scanning(
        lambda payload, mac, distance: heard.append((payload, distance))
    )


def test_default_ranges_per_technology():
    assert DEFAULT_RANGES[RadioKind.BLE] == 30.0
    assert DEFAULT_RANGES[RadioKind.WIFI] == 100.0
    assert DEFAULT_RANGES[RadioKind.NFC] == pytest.approx(0.1)


def test_broadcast_reaches_in_range_receiver(kernel, medium, make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=10)
    heard = []
    _scan_all(b, heard)
    a.radios[RadioKind.BLE].advertise_once(b"hello")
    kernel.run_until(1.0)
    assert heard == [(b"hello", 10.0)]


def test_broadcast_misses_out_of_range_receiver(kernel, medium, make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=31)  # beyond the 30 m BLE range
    heard = []
    _scan_all(b, heard)
    a.radios[RadioKind.BLE].advertise_once(b"hello")
    kernel.run_until(1.0)
    assert heard == []


def test_sender_does_not_hear_itself(kernel, medium, make_device):
    a = make_device("a", x=0)
    heard = []
    _scan_all(a, heard)
    a.radios[RadioKind.BLE].advertise_once(b"self")
    kernel.run_until(1.0)
    assert heard == []


def test_different_kinds_do_not_cross(kernel, medium, make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=1)
    heard = []
    _scan_all(b, heard)
    b.radios[RadioKind.WIFI].on_multicast(lambda payload, src: heard.append(payload))
    # A WiFi frame never reaches a BLE scanner and vice versa; medium
    # separates kinds structurally, checked via in_range.
    assert not medium.in_range(a.radios[RadioKind.BLE], b.radios[RadioKind.WIFI])


def test_in_range_respects_custom_propagation(kernel, world, make_device):
    from repro.radio.medium import Medium

    medium = Medium(kernel, world, propagation={RadioKind.BLE: UnitDisk(5.0)})
    # Note make_device fixture uses the default medium; build radios directly.
    from repro.phy.geometry import Position
    from repro.radio.base import Device
    from repro.radio.ble import BleRadio

    node_a = world.add_node("ca", position=Position(0, 0))
    node_b = world.add_node("cb", position=Position(6, 0))
    device_a, device_b = Device(kernel, node_a), Device(kernel, node_b)
    radio_a = BleRadio(device_a, medium)
    radio_b = BleRadio(device_b, medium)
    assert not medium.in_range(radio_a, radio_b)


def test_reachable_from_excludes_disabled(kernel, medium, make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    c = make_device("c", x=6, enable=False)
    reachable = medium.reachable_from(a.radios[RadioKind.BLE])
    names = {radio.device.name for radio in reachable}
    assert names == {"b"}


def test_delivery_recheck_after_airtime(kernel, medium, make_device):
    # A receiver disabled during a frame's airtime must not receive it.
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    heard = []
    _scan_all(b, heard)
    a.radios[RadioKind.BLE].advertise_once(b"x")
    b.radios[RadioKind.BLE].stop_scanning()  # before the airtime elapses
    kernel.run_until(1.0)
    assert heard == []


def test_frame_counters(kernel, medium, make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    heard = []
    _scan_all(b, heard)
    a.radios[RadioKind.BLE].advertise_once(b"x")
    kernel.run_until(1.0)
    assert medium.frames_sent == 1
    assert medium.frames_delivered == 1
    assert medium.frames_dropped == 0


def test_frames_dropped_counts_airtime_losses(kernel, medium, make_device):
    # A delivery scheduled at broadcast time but rejected at arrival (the
    # receiver stopped scanning during the airtime) lands in frames_dropped.
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    heard = []
    _scan_all(b, heard)
    a.radios[RadioKind.BLE].advertise_once(b"x")
    b.radios[RadioKind.BLE].stop_scanning()
    kernel.run_until(1.0)
    assert heard == []
    assert medium.frames_sent == 1
    assert medium.frames_delivered == 0
    assert medium.frames_dropped == 1


def test_broadcast_uses_spatial_pruning(kernel, medium, make_device):
    # Far-away radios must not even be distance-tested: the cell batch
    # for a BLE broadcast from the origin excludes them outright.
    a = make_device("a", x=0)
    make_device("b", x=10)
    make_device("far", x=5000)
    origin = a.radios[RadioKind.BLE].node.position
    batch = medium._cell_batch(RadioKind.BLE, origin, 30.0)
    names = {radio.device.name for radio in batch.radios}
    assert "far" not in names
    assert "b" in names


def test_adhoc_mesh_is_singleton(medium):
    assert medium.adhoc_mesh() is medium.adhoc_mesh()
    assert medium.adhoc_mesh().name == "adhoc"


def test_detach_removes_radio(kernel, medium, make_device):
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    medium.detach(b.radios[RadioKind.BLE])
    assert b.radios[RadioKind.BLE] not in medium.radios(RadioKind.BLE)


def test_radios_returns_an_immutable_snapshot(medium, make_device):
    """``Medium.radios`` hands out a tuple, not the live internal list:
    callers can neither mutate the attach registry (which would corrupt
    the RNG draw order) nor observe it shifting under iteration."""
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    snapshot = medium.radios(RadioKind.BLE)
    assert isinstance(snapshot, tuple)
    assert a.radios[RadioKind.BLE] in snapshot
    # Detaching after the snapshot leaves the snapshot untouched.
    medium.detach(b.radios[RadioKind.BLE])
    assert b.radios[RadioKind.BLE] in snapshot
    assert b.radios[RadioKind.BLE] not in medium.radios(RadioKind.BLE)


def test_finished_scene_is_collectable():
    """Nothing the medium caches may hide a finished scene from the cycle
    collector (numpy arrays do not report the objects they hold): once
    the last reference goes, the medium and its radios are freed."""
    kernel = Kernel(seed=5)
    world = World(kernel)
    medium = Medium(kernel, world)
    radios = []
    for i in range(3):
        node = world.add_node(f"g{i}", position=Position(i * 5.0, 0.0))
        device = Device(kernel, node)
        radios.append(device.add_radio(BleRadio(device, medium)))
        radios[-1].enable()
        radios[-1].start_scanning(lambda payload, mac, distance: None)
    assert radios[0].advertise_once(b"x") == 2
    kernel.run_until(1.0)
    alive = weakref.ref(medium)
    del kernel, world, medium, radios, node, device
    gc.collect()
    assert alive() is None


def test_finished_scene_large_enough_to_freeze_is_collectable():
    """The larger sibling of the test above: a drain this scene's queue is
    long enough to freeze thaws on return, so the scene it ran is still
    freed by the cycle collector once the last reference goes."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    kernel = Kernel(seed=5)
    world = World(kernel)
    medium = Medium(kernel, world)
    radios = []
    for i in range(20):
        node = world.add_node(f"g{i}", position=Position(i * 5.0, 0.0))
        device = Device(kernel, node)
        radios.append(device.add_radio(BleRadio(device, medium)))
        radios[-1].enable()
        radios[-1].start_scanning(lambda payload, mac, distance: None)
    rounds = gc.get_threshold()[0] // len(radios) + 1
    for round_index in range(rounds):
        for radio in radios:
            kernel.call_at(round_index * 0.1, lambda r=radio: r.advertise_once(b"x"))
    frozen = []
    kernel.call_at(0.0, lambda: frozen.append(gc.get_freeze_count()))
    kernel.run_until(rounds * 0.1)
    assert frozen[0] > 0
    assert gc.get_freeze_count() == 0
    alive = weakref.ref(medium)
    del kernel, world, medium, radios, radio, node, device
    gc.collect()
    assert alive() is None
