"""Delivery-event pooling and the candidate-batch cache counters.

The batch pipeline's two allocation optimizations are observable without
touching delivery semantics: ``batch_cache_hits``/``batch_cache_misses``
count per-(timestamp, version) candidate-gather reuse, and the
``_BatchDelivery`` shells recycle through the medium's pool — the same
object identity serving successive transmissions.  The scalar reference
medium pools its per-receiver ``_Delivery`` shells the same way.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from tests.reference_medium import ReferenceMedium


def _population(medium_cls=Medium, count=3, spacing=1.0):
    kernel = Kernel(seed=11)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    heard = []
    radios = []
    for i in range(count):
        node = world.add_node(f"p{i}", position=Position(i * spacing, 0.0))
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append((me, payload))
        )
        radios.append(radio)
    return kernel, medium, radios, heard


def test_same_cell_senders_share_one_gather():
    kernel, medium, radios, _ = _population()
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 0)
    radios[0].advertise_once(b"a")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 1)
    # Same timestamp, same cell, no attach/move in between: pure hits.
    radios[1].advertise_once(b"b")
    radios[2].advertise_once(b"c")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (2, 1)


def test_clock_advance_invalidates_the_batch_cache():
    kernel, medium, radios, _ = _population()
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    radios[0].advertise_once(b"b")
    assert medium.batch_cache_misses == 2


def test_attach_invalidates_the_batch_cache():
    kernel, medium, radios, _ = _population()
    radios[0].advertise_once(b"a")
    node = medium.world.add_node("late", position=Position(0.5, 0.0))
    device = Device(kernel, node)
    device.add_radio(BleRadio(device, medium)).enable()
    radios[0].advertise_once(b"b")
    # The new attach bumped the version: the second gather cannot reuse
    # the first (it would miss the new radio).
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 2)


def test_batch_shells_recycle_through_the_pool():
    kernel, medium, radios, heard = _population()
    assert medium._batch_pool == []
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    assert heard  # the broadcast actually delivered
    assert len(medium._batch_pool) == 1
    shell = medium._batch_pool[0]
    assert shell.receivers is None and shell.frame is None
    radios[1].advertise_once(b"b")
    # The scheduled event reused the recycled shell rather than allocating.
    assert medium._batch_pool == []
    kernel.run_until(2.0)
    assert medium._batch_pool == [shell]


def test_scalar_shells_recycle_through_the_pool():
    kernel, medium, radios, heard = _population(ReferenceMedium)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    delivered = len([1 for _, payload in heard if payload == b"a"])
    assert delivered == 2  # both neighbors in range
    assert len(medium._delivery_pool) == 2
    shells = set(map(id, medium._delivery_pool))
    radios[1].advertise_once(b"b")
    assert medium._delivery_pool == []  # both shells back in flight
    kernel.run_until(2.0)
    assert set(map(id, medium._delivery_pool)) == shells


def test_counters_survive_on_scalar_medium_untouched():
    kernel, medium, radios, _ = _population(ReferenceMedium)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    # The scalar reference never consults the batch cache.
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 0)
