"""Delivery-time semantics of the batch pipeline's new fast paths.

The batch delivery event may skip its acceptance re-check (state
versioning) and collapse per-receiver dispatch into one ``deliver_batch``
call (mono-class registry) — each elision is only legal when it is
provably unobservable.  These tests pin the observable side: in-flight
state changes still drop frames exactly like the scalar reference,
elided re-checks really are elided, scalar-only subclass overrides still
run, and duty-cycled scanning stays byte-identical to the reference.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.mobility import Static
from repro.phy.world import World
from repro.radio.base import Device, Radio
from repro.radio.ble import BleRadio, ScanConfig
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from tests.reference_medium import ReferenceMedium

class _CountingMedium(Medium):
    """Counts acceptance-stage invocations to observe re-check elision."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.acceptance_calls = 0

    def _acceptance_mask(self, *args, **kwargs):
        self.acceptance_calls += 1
        return super()._acceptance_mask(*args, **kwargs)


def _line_of_radios(kernel, medium, count, spacing=5.0, radio_cls=BleRadio):
    world = medium.world
    radios = []
    for i in range(count):
        node = world.add_node(
            f"n{i}", mobility=Static(Position(i * spacing, 0.0))
        )
        device = Device(kernel, node)
        radio = device.add_radio(radio_cls(device, medium))
        radio.enable()
        radios.append(radio)
    return radios


def _fresh_line(medium_cls=Medium, count=4):
    kernel = Kernel(seed=11)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    radios = _line_of_radios(kernel, medium, count)
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
    acceptance mask runs once per broadcast (the pre-filter); a churned
    medium re-checks at delivery time too."""
    kernel, medium, radios = _fresh_line(_CountingMedium)
    for radio in radios[1:]:
        radio.start_scanning(lambda payload, mac, distance: None)
    medium.acceptance_calls = 0
    radios[0].advertise_once(b"quiet")
    kernel.run_until(1.0)
    assert medium.acceptance_calls == 1

    medium.acceptance_calls = 0
    radios[0].advertise_once(b"churned")
    kernel.call_in(0.0002, radios[3].stop_scanning)
    kernel.run_until(2.0)
    assert medium.acceptance_calls == 2


def test_deliver_batch_falls_back_for_scalar_only_overrides():
    """A subclass that overrides ``_deliver`` without a batch twin must
    still have its override run per receiver — ``deliver_batch`` detects
    the redefinition and delegates elementwise."""
    log = []

    class TracingBle(BleRadio):
        def _deliver(self, frame, distance):
            log.append((self.device.name, distance))
            super()._deliver(frame, distance)

    kernel = Kernel(seed=11)
    world = World(kernel)
    medium = Medium(kernel, world)
    radios = _line_of_radios(kernel, medium, 3, radio_cls=TracingBle)
    heard = []
    for radio in radios[1:]:
        radio.start_scanning(
            lambda payload, mac, distance: heard.append(payload)
        )
    radios[0].advertise_once(b"traced")
    kernel.run_until(1.0)
    assert log == [("n1", 5.0), ("n2", 10.0)]
    assert heard == [b"traced", b"traced"]


def test_duty_cycled_scanning_parity_across_paths():
    """Mixed duty cycles make deliver_batch roll scan-window RNG per
    duty-cycled receiver; records, counters, and every radio's
    frames_heard must match the scalar reference."""

    def run(medium_cls):
        kernel = Kernel(seed=29)
        world = World(kernel)
        medium = medium_cls(kernel, world)
        radios = _line_of_radios(kernel, medium, 8, spacing=3.0)
        heard = []
        for i, radio in enumerate(radios):
            config = (
                ScanConfig(window_s=0.5, interval_s=1.0)
                if i % 2
                else ScanConfig()
            )
            radio.start_scanning(
                lambda payload, mac, distance, me=i: heard.append(
                    (me, payload, distance)
                ),
                config,
            )
        for round_index in range(3):
            kernel.run_until(float(round_index))
            for i, radio in enumerate(radios):
                radio.advertise_once(bytes([round_index, i]))
        kernel.run_until(5.0)
        return (
            heard,
            medium.frames_delivered,
            medium.frames_dropped,
            [radio.frames_heard for radio in radios],
        )

    vec = run(Medium)
    scalar = run(ReferenceMedium)
    assert vec == scalar
    heard = vec[0]
    assert heard  # deliveries happened
    # Duty-cycled radios actually missed some frames (the RNG path ran):
    # an odd-indexed radio heard fewer than the continuous ones.
    heard_by = vec[3]
    assert min(heard_by[1::2]) < min(heard_by[0::2])
