"""Parallel == serial, and grid-indexed == linear-scan, bit for bit.

The runner's contract is that fanning cells out over processes changes
wall-clock only: every structured result must match the serial drivers
field for field at any seed.  The medium's contract is that its binned
batch gather prunes work, never outcomes: it must match the scalar
reference medium, which scans every radio linearly.
"""

import pytest

from repro.experiments import mobility_exp
from repro.experiments.controlled import run_table4
from repro.experiments.disseminate_exp import run_table5
from repro.experiments.mobility_exp import run_mobility
from repro.experiments.prophet_exp import run_fig7
from repro.phy.geometry import Position
from repro.phy.mobility import Linear
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.runner import engine, run_experiment
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng
from tests.reference_medium import ReferenceMedium

DRIVERS = {
    "table4": run_table4,
    "table5": run_table5,
    "fig7": run_fig7,
    "mobility": run_mobility,
}

SEEDS = {
    "table4": (1, 2),
    "table5": (11, 12),
    "fig7": (21, 22),
    "mobility": (41, 42),
}


@pytest.mark.parametrize("experiment", ["table4", "table5", "fig7", "mobility"])
def test_parallel_equals_serial_at_two_seeds(experiment):
    seeds = list(SEEDS[experiment])
    serial = run_experiment(experiment, seeds=seeds, serial=True)
    parallel = run_experiment(experiment, seeds=seeds, workers=4)
    # Field-for-field: driver results are dataclasses comparing by value.
    assert serial.results == parallel.results
    # And both match the serial driver run outside the runner entirely.
    driver = DRIVERS[experiment]
    for seed, grid in zip(seeds, parallel.results_by_seed()):
        assert grid == driver(seed=seed)


def test_spawned_pool_workers_match_serial(monkeypatch):
    # The pool forks wherever fork exists, so only this test runs the
    # spawn fallback, which pickles every job and re-imports the drivers.
    monkeypatch.setattr(engine, "_pick_start_method", lambda: "spawn")
    spawned = run_experiment("table3", workers=2)
    serial = run_experiment("table3", serial=True)
    assert spawned.start_method == "spawn"
    assert [cell.digest_line() for cell in spawned.outcomes] == [
        cell.digest_line() for cell in serial.outcomes
    ]


def test_runner_timings_are_recorded():
    report = run_experiment("fig7", serial=True)
    assert len(report.outcomes) == 3
    assert all(outcome.wall_s > 0.0 for outcome in report.outcomes)
    assert report.total_wall_s >= max(o.wall_s for o in report.outcomes)
    payload = report.to_bench_dict()
    assert payload["experiment"] == "fig7"
    assert len(payload["cells"]) == 3
    assert all("wall_s" in cell and "result_digest" in cell
               for cell in payload["cells"])


def test_bench_payload_records_array_backend():
    import numpy

    report = run_experiment("fig7", serial=True)
    payload = report.to_bench_dict()
    assert payload["array_backend"] == "numpy"
    assert payload["numpy_version"] == numpy.__version__


def test_mobility_scene_matches_the_scalar_reference(monkeypatch):
    """The all-mobile runner cell is identical, field for field (counters
    and delivery digest), when its medium is the scalar reference."""
    production = mobility_exp.run_mobility(seed=41)
    monkeypatch.setattr(mobility_exp, "Medium", ReferenceMedium)
    assert mobility_exp.run_mobility(seed=41) == production
    assert production[0].delivery_count > 0


# -- grid vs linear medium ---------------------------------------------------

NODE_COUNT = 200
ARENA_M = 400.0


def _build_layout(medium_cls):
    """200 BLE devices (10% mobile) on a fixed random layout, all scanning."""
    kernel = Kernel(seed=7)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    layout_rng = SeededRng(424242)
    radios = []
    heard = {}
    for i in range(NODE_COUNT):
        x = layout_rng.uniform(0.0, ARENA_M)
        y = layout_rng.uniform(0.0, ARENA_M)
        name = f"n{i}"
        if i % 10 == 0:  # a mobile minority moves between stamps
            node = world.add_node(name, mobility=Linear(Position(x, y), (1.0, -0.5)))
        else:
            node = world.add_node(name, position=Position(x, y))
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        heard[name] = []
        radio.start_scanning(
            lambda payload, mac, distance, log=heard[name]: log.append(
                (payload, round(distance, 9))
            )
        )
        radios.append(radio)
    return kernel, medium, radios, heard


def _run_broadcast_round(medium_cls):
    kernel, medium, radios, heard = _build_layout(medium_cls)
    kernel.run_until(1.0)
    for index, radio in enumerate(radios):
        if index % 5 == 0:
            radio.advertise_once(b"hi%d" % index)
    kernel.run_until(5.0)
    counters = (medium.frames_sent, medium.frames_delivered, medium.frames_dropped)
    return heard, counters


def test_indexed_medium_delivers_identical_frame_set():
    linear_heard, linear_counters = _run_broadcast_round(ReferenceMedium)
    grid_heard, grid_counters = _run_broadcast_round(Medium)
    assert grid_counters == linear_counters
    assert grid_heard == linear_heard
    # Sanity: the layout actually produced traffic to compare.
    assert linear_counters[1] > 0


def test_indexed_medium_reachable_sets_match_linear():
    kernel_a, medium_a, radios_a, _ = _build_layout(ReferenceMedium)
    kernel_b, medium_b, radios_b, _ = _build_layout(Medium)
    kernel_a.run_until(1.0)
    kernel_b.run_until(1.0)
    for radio_a, radio_b in zip(radios_a, radios_b):
        names_a = [r.device.name for r in medium_a.reachable_from(radio_a)]
        names_b = [r.device.name for r in medium_b.reachable_from(radio_b)]
        assert names_a == names_b
    assert any(medium_a.reachable_from(r) for r in radios_a)
