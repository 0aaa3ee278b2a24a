"""The candidate-batch cache counters.

The batch pipeline's candidate-gather reuse is observable without
touching delivery semantics: ``batch_cache_hits``/``batch_cache_misses``
count reuse per technology stamp — the attach/move version alone while
none of the technology's radios can move, (timestamp, version) while one
can.  The scalar reference medium never consults the cache.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.mobility import Linear
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from tests.reference_medium import ReferenceMedium


def _population(medium_cls=Medium, count=3, spacing=1.0, linear=False):
    """``count`` BLE scanners in a row; with ``linear``, the last one
    drifts slowly (a ``Linear`` model) instead of sitting still."""
    kernel = Kernel(seed=11)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    radios = []
    for i in range(count):
        start = Position(i * spacing, 0.0)
        if linear and i == count - 1:
            node = world.add_node(
                f"p{i}", mobility=Linear(start, (0.01, 0.0))
            )
        else:
            node = world.add_node(f"p{i}", position=start)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(lambda payload, mac, distance: None)
        radios.append(radio)
    return kernel, medium, radios


def test_same_cell_senders_share_one_gather():
    kernel, medium, radios = _population()
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 0)
    radios[0].advertise_once(b"a")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 1)
    # Same timestamp, same cell, no attach/move in between: pure hits.
    radios[1].advertise_once(b"b")
    radios[2].advertise_once(b"c")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (2, 1)


def test_clock_advance_invalidates_the_batch_cache():
    # One Linear node makes the whole technology a mover: its positions
    # are only good for one instant.
    kernel, medium, radios = _population(linear=True)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    radios[0].advertise_once(b"b")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 2)


def test_static_kind_keeps_its_batch_across_instants():
    # No radio of the technology can move: the batch outlives the instant.
    kernel, medium, radios = _population()
    radios[0].advertise_once(b"a")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 1)
    kernel.run_until(1.0)
    radios[0].advertise_once(b"b")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (1, 1)


def test_attach_invalidates_the_batch_cache():
    kernel, medium, radios = _population()
    radios[0].advertise_once(b"a")
    node = medium.world.add_node("late", position=Position(0.5, 0.0))
    device = Device(kernel, node)
    device.add_radio(BleRadio(device, medium)).enable()
    radios[0].advertise_once(b"b")
    # The new attach bumped the version: the second gather cannot reuse
    # the first (it would miss the new radio).
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 2)


def test_counters_survive_on_scalar_medium_untouched():
    kernel, medium, radios = _population(ReferenceMedium)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    # The scalar reference never consults the batch cache.
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 0)
