"""Delivery-time semantics of the batch pipeline's new fast paths.

The batch delivery event may skip its acceptance re-check (state
versioning) and collapse per-receiver dispatch into one ``deliver_batch``
call (mono-class registry) — each elision is only legal when it is
provably unobservable.  These tests pin the observable side: in-flight
state changes still drop frames exactly like the scalar reference, and
elided re-checks really are elided.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.mobility import Static
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from tests.reference_medium import ReferenceMedium


class _CountingMedium(Medium):
    """Counts acceptance-stage invocations to observe re-check elision:
    all of them, and apart from those the delivery-time re-checks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.acceptance_calls = 0
        self.rechecks = 0

    def _acceptance_mask(self, *args, **kwargs):
        self.acceptance_calls += 1
        return super()._acceptance_mask(*args, **kwargs)

    def _execute_batch_delivery(self, *args, **kwargs):
        calls = self.acceptance_calls
        super()._execute_batch_delivery(*args, **kwargs)
        self.rechecks += self.acceptance_calls - calls


def _fresh_line(medium_cls=Medium):
    """Four enabled BLE radios 5 m apart on a line."""
    kernel = Kernel(seed=11)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    radios = []
    for i in range(4):
        node = world.add_node(f"n{i}", mobility=Static(Position(i * 5.0, 0.0)))
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radios.append(radio)
    return kernel, medium, radios


def test_stop_scanning_in_flight_forces_recheck_and_drop():
    """A receiver that stops scanning during the frame's airtime is
    dropped at delivery time — the versioned re-check elision must notice
    the state change — with counters matching the scalar reference."""
    outcomes = []
    for medium_cls in (Medium, ReferenceMedium):
        kernel, medium, radios = _fresh_line(medium_cls)
        heard = []
        for i, radio in enumerate(radios[1:], start=1):
            radio.start_scanning(
                lambda payload, mac, distance, me=i: heard.append(me)
            )
        count = radios[0].advertise_once(b"hi")
        assert count == len(radios) - 1
        # The frame is in flight (airtime ~1 ms); radio 2 stops listening
        # before it lands.
        kernel.call_in(0.0002, radios[2].stop_scanning)
        kernel.run_until(1.0)
        outcomes.append(
            (sorted(heard), medium.frames_delivered, medium.frames_dropped)
        )
    assert outcomes[0] == outcomes[1]
    heard, delivered, dropped = outcomes[0]
    assert heard == [1, 3]
    assert delivered == 2
    assert dropped == 1


def test_unchanged_state_elides_the_delivery_recheck():
    """With no acceptance-state churn between scheduling and arrival, the
    acceptance mask runs only as the pre-filter, once per batch and
    acceptance version — so a quiet broadcast at a later instant, whose
    static batch and mask both still hold, runs none at all.  A churned
    broadcast re-checks at delivery time and drops the churned radio."""
    kernel, medium, radios = _fresh_line(_CountingMedium)
    heard = []
    for i, radio in enumerate(radios[1:], start=1):
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append((me, payload))
        )
    medium.acceptance_calls = 0
    radios[0].advertise_once(b"quiet")
    kernel.run_until(1.0)
    assert (medium.acceptance_calls, medium.rechecks) == (1, 0)

    medium.acceptance_calls = 0
    radios[0].advertise_once(b"later")
    kernel.run_until(2.0)
    assert (medium.acceptance_calls, medium.rechecks) == (0, 0)

    radios[0].advertise_once(b"churned")
    kernel.call_in(0.0002, radios[3].stop_scanning)
    kernel.run_until(3.0)
    assert medium.rechecks == 1
    assert [me for me, payload in heard if payload == b"churned"] == [1, 2]
    assert medium.frames_dropped == 1
