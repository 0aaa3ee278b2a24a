"""Microbenchmark: grid-indexed vs linear-scan frame fan-out.

Dense-neighborhood simulation spends its time deciding who hears each
frame.  The linear scan — the scalar reference medium in
``tests/reference_medium.py`` — distance-tests every attached radio per
broadcast (O(n), O(n²) per beacon round); the production medium only
gathers the grid cells within the technology's range.  This bench pits
the two against each other on identical random layouts at 50 and 200
nodes and asserts both the speedup and that the gather changes nothing
about who hears what.

The second benchmark is the hostile regime for a static-only grid: 200
nodes, *all* of them mobile (``RandomWaypoint``), beaconing while the sim
clock advances.  The production medium, which re-bins every radio once
per instant, must beat the linear scan ≥4× while producing a
byte-identical delivery log, and the runner's ``mobility`` cell must
digest identically serially, at ``--workers 4``, and on the reference
medium.  Results land in ``BENCH_mobility.json``.  Setting
``REPRO_BENCH_SMOKE=1`` relaxes the speedup floor (CI smoke on noisy
runners) — the equality assertions stay strict.

Run with ``pytest benchmarks/test_perf_medium.py -s`` to see the tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import mobility_exp
from repro.phy.geometry import Position
from repro.phy.mobility import RandomWaypoint
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.runner import run_experiment
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng
from tests.reference_medium import ReferenceMedium

ARENA_M = 2000.0
ROUNDS = 40
#: The acceptance bar: indexed fan-out at 200 nodes must beat the
#: linear scan by at least this factor while delivering the same frames.
REQUIRED_SPEEDUP_AT_200 = 5.0

#: All-mobile layout: node count, beacon rounds, and sim-time step between
#: rounds (large enough that the walkers cross several index epochs).
MOBILE_NODE_COUNT = 200
MOBILE_ROUNDS = 20
MOBILE_STEP_S = 2.0
#: Acceptance bar for the mobile regime (relaxed under REPRO_BENCH_SMOKE).
MOBILE_REQUIRED_SPEEDUP = 4.0
BENCH_MOBILITY_PATH = Path("BENCH_mobility.json")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _build(node_count: int, medium_cls):
    kernel = Kernel(seed=5)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    layout_rng = SeededRng(1337)
    radios = []
    for i in range(node_count):
        position = Position(
            layout_rng.uniform(0.0, ARENA_M), layout_rng.uniform(0.0, ARENA_M)
        )
        node = world.add_node(f"n{i}", position=position)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radios.append(radio)
    return kernel, medium, radios


def _time_broadcast_round(node_count: int, medium_cls):
    """Wall-clock of every node advertising once, repeated ROUNDS times."""
    kernel, medium, radios = _build(node_count, medium_cls)
    reach = [
        tuple(r.device.name for r in medium.reachable_from(radio))
        for radio in radios
    ]
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for radio in radios:
            radio.advertise_once(b"beacon")
    elapsed = time.perf_counter() - start
    kernel.run()  # drain scheduled deliveries (not timed: same both ways)
    return elapsed, reach, medium.frames_delivered


def test_indexed_broadcast_beats_linear_scan():
    print()
    print(f"{'nodes':>6}  {'linear':>10}  {'indexed':>10}  {'speedup':>8}")
    speedups = {}
    for node_count in (50, 200):
        linear_s, linear_reach, linear_delivered = _time_broadcast_round(
            node_count, ReferenceMedium
        )
        indexed_s, indexed_reach, indexed_delivered = _time_broadcast_round(
            node_count, Medium
        )
        # Identical frame set: same neighbor lists, same delivery count.
        assert indexed_reach == linear_reach
        assert indexed_delivered == linear_delivered
        speedups[node_count] = linear_s / indexed_s
        print(
            f"{node_count:>6}  {linear_s * 1e3:>8.1f}ms  {indexed_s * 1e3:>8.1f}ms"
            f"  ×{speedups[node_count]:>6.1f}"
        )
    assert speedups[200] >= REQUIRED_SPEEDUP_AT_200, (
        f"indexed broadcast only ×{speedups[200]:.1f} over linear at 200 nodes"
        f" (need ×{REQUIRED_SPEEDUP_AT_200})"
    )


# -- all-mobile regime ----------------------------------------------------------


def _build_mobile(medium_cls):
    """200 RandomWaypoint walkers, every one mobile, all scanning."""
    kernel = Kernel(seed=9)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    radios = []
    heard = []
    for i in range(MOBILE_NODE_COUNT):
        walk = RandomWaypoint(
            kernel.rng.child("bench-walk", str(i)),
            width=ARENA_M,
            height=ARENA_M,
            speed=1.0 + 0.1 * (i % 10),
        )
        node = world.add_node(f"m{i}", mobility=walk)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append(
                (me, payload, round(distance, 9))
            )
        )
        radios.append(radio)
    return kernel, medium, radios, heard


def _time_mobile_broadcast(medium_cls):
    """Wall-clock of beacon rounds interleaved with real clock advance.

    Advancing sim time between rounds is the point: the walkers move, the
    production medium re-bins every walker once per instant, and the
    linear scan re-evaluates every walker's position per broadcast.
    """
    kernel, medium, radios, heard = _build_mobile(medium_cls)
    start = time.perf_counter()
    for round_index in range(MOBILE_ROUNDS):
        kernel.run_until((round_index + 1) * MOBILE_STEP_S)
        for radio in radios:
            radio.advertise_once(b"mob")
    elapsed = time.perf_counter() - start
    kernel.run()  # drain the final round's deliveries (identical both ways)
    digest = hashlib.sha256(repr(heard).encode("utf-8")).hexdigest()[:16]
    return elapsed, digest, medium.frames_delivered


def test_time_aware_index_accelerates_all_mobile_fanout(
    monkeypatch: pytest.MonkeyPatch,
):
    print()
    linear_s, linear_digest, linear_delivered = _time_mobile_broadcast(
        ReferenceMedium
    )
    indexed_s, indexed_digest, indexed_delivered = _time_mobile_broadcast(
        Medium
    )
    # Byte-identical delivery sets, mover pruning or not.
    assert indexed_digest == linear_digest
    assert indexed_delivered == linear_delivered
    assert linear_delivered > 0  # the layout actually produced traffic
    speedup = linear_s / indexed_s
    print(
        f"all-mobile {MOBILE_NODE_COUNT} nodes: linear {linear_s * 1e3:8.1f}ms"
        f"  indexed {indexed_s * 1e3:8.1f}ms  ×{speedup:6.1f}"
    )

    # The same mobile regime through the runner: serial vs 4 workers must
    # digest identically, and the cell must match the reference medium's.
    serial = run_experiment("mobility", seeds=[41], serial=True)
    parallel = run_experiment("mobility", seeds=[41], workers=4)
    serial_digests = [outcome.result_digest for outcome in serial.outcomes]
    parallel_digests = [outcome.result_digest for outcome in parallel.outcomes]
    assert serial.results == parallel.results
    assert serial_digests == parallel_digests
    with monkeypatch.context() as patch:
        patch.setattr(mobility_exp, "Medium", ReferenceMedium)
        reference = mobility_exp.run_mobility(seed=41)
    assert reference == serial.results  # production cell == linear cell

    BENCH_MOBILITY_PATH.write_text(
        json.dumps(
            {
                "schema": "repro.bench/mobility.v1",
                "node_count": MOBILE_NODE_COUNT,
                "rounds": MOBILE_ROUNDS,
                "step_s": MOBILE_STEP_S,
                "linear_s": linear_s,
                "indexed_s": indexed_s,
                "speedup": speedup,
                "frames_delivered": linear_delivered,
                "delivery_digest": {
                    "linear": linear_digest,
                    "indexed": indexed_digest,
                },
                "digests_match": indexed_digest == linear_digest,
                "runner": {
                    "experiment": "mobility",
                    "seed": 41,
                    "cells": [outcome.cell for outcome in serial.outcomes],
                    "serial_digests": serial_digests,
                    "workers4_digests": parallel_digests,
                    "digest_match": serial_digests == parallel_digests
                    and reference == serial.results,
                },
                "smoke": SMOKE,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {BENCH_MOBILITY_PATH}")

    required = 1.0 if SMOKE else MOBILE_REQUIRED_SPEEDUP
    assert speedup >= required, (
        f"time-aware index only ×{speedup:.1f} over linear on the all-mobile"
        f" layout (need ×{required})"
    )
