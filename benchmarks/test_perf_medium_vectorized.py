"""Benchmark: the batch delivery pipeline vs the scalar reference loop.

The batch pipeline (``Medium.broadcast``) replaces the per-receiver
scalar loop of the reference medium (``tests/reference_medium.py``) —
linear scan, position lookup, distance, delivery roll, acceptance check,
one kernel event per receiver — with four batch stages: a cached struct-packed candidate gather
(**query**), one distances-probabilities-rolls array pass
(**probability**), one ``accepts_mask`` call per concrete radio class
(**acceptance**), and a single pooled ``_BatchDelivery`` event per
transmission whose side effects run in attach order (**delivery**).

This bench runs the 2k-node mixed-mobility scenario (Static +
RandomWaypoint + Linear + WaypointPath, the ``ScenarioSpec`` recipe) and
times the pipeline **end to end**: each round's advertise loop *plus*
the kernel drain that executes that round's deliveries — so event
scheduling, pooling, and the delivery-time re-check are all inside the
measured window, not just the synchronous broadcast half.

A separate instrumented run (``StageTimedMedium`` below, wrapping the
four stage seams with ``time.perf_counter``) produces the per-stage
breakdown; the stages are disjoint code regions, so their sum is a lower
bound on the measured vectorized total.

Acceptance: ≥18× end-to-end speedup, and byte-identical delivery logs
across the serial scalar reference, the serial batch medium, and
``run_sharded(spec, 4)``.  Results land in ``BENCH_medium_vectorized.json``.
Setting ``REPRO_BENCH_SMOKE=1`` relaxes the speedup floor (CI smoke on
noisy runners) — every equality assertion stays strict.

Run with ``pytest benchmarks/test_perf_medium_vectorized.py -s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.sim.sharded import engine
from repro.sim.sharded.engine import run_serial, run_sharded
from repro.sim.sharded.shard import node_name
from repro.sim.sharded.spec import PAYLOAD_STRUCT, ScenarioSpec, build_models
from repro.util import array
from tests.reference_medium import ReferenceMedium

#: 2000 nodes in a 250 m arena: ~100 candidates per broadcast, the regime
#: the batch pipeline is built for.  Three beacon rounds with the clock
#: advancing between them so every mobility class actually moves.
SPEC = ScenarioSpec(
    name="vectorized-bench",
    arena_m=250.0,
    node_count=2000,
    rounds=3,
    beacon_period_s=5.0,
    horizon_s=5.0,
    seed=23,
)

#: The acceptance bar: broadcast *plus* delivery drain, batch medium vs
#: the scalar reference, on the scenario above.
REQUIRED_SPEEDUP = 18.0
BENCH_PATH = Path("BENCH_medium_vectorized.json")

#: How long after each beacon instant the timed window drains: far beyond
#: airtime + propagation delay, well short of the next round.
DRAIN_S = 1.0

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Timed repetitions per configuration; the minimum is reported
#: (standard timeit practice — the fastest observation is the one least
#: disturbed by scheduler noise, and the runs are deterministic so every
#: repetition does identical work).  Smoke mode keeps CI fast.
TIMED_RUNS = 1 if SMOKE else 3


class StageTimedMedium(Medium):
    """A medium whose four pipeline-stage seams are wall-clock instrumented.

    Lives in benchmarks/ (outside the DET lint tree) on purpose: the
    production medium never reads the wall clock.  Each override brackets
    exactly one stage — query (``_cell_batch``), probability
    (``_delivery_mask``), acceptance (``_acceptance_mask``, covering both
    the broadcast pre-filter and the delivery-time re-check), and
    delivery side effects (``_deliver_masked``) — so the four buckets are
    disjoint and their sum lower-bounds the end-to-end total.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stage_s = {
            "query": 0.0,
            "probability": 0.0,
            "acceptance": 0.0,
            "delivery": 0.0,
        }

    def _cell_batch(self, *args):
        tick = time.perf_counter()
        try:
            return super()._cell_batch(*args)
        finally:
            self.stage_s["query"] += time.perf_counter() - tick

    def _delivery_mask(self, *args):
        tick = time.perf_counter()
        try:
            return super()._delivery_mask(*args)
        finally:
            self.stage_s["probability"] += time.perf_counter() - tick

    def _acceptance_mask(self, *args):
        tick = time.perf_counter()
        try:
            return super()._acceptance_mask(*args)
        finally:
            self.stage_s["acceptance"] += time.perf_counter() - tick

    def _deliver_masked(self, *args):
        tick = time.perf_counter()
        try:
            return super()._deliver_masked(*args)
        finally:
            self.stage_s["delivery"] += time.perf_counter() - tick


def _timed_run(medium_cls):
    """Build SPEC's population by hand and time broadcast + delivery.

    Mirrors :func:`repro.sim.sharded.engine.run_serial` (same models, same
    node names, same payloads) but splits the wall clock per round: the
    timed window opens at the advertise loop and closes once the kernel
    has drained that round's arrivals (``DRAIN_S`` past the beacon
    instant); the inter-round mobility advance stays untimed — it is
    identical work on every path and would only dilute the measurement.
    """
    models = build_models(SPEC)
    kernel = Kernel(seed=SPEC.seed)
    world = World(kernel)
    medium = medium_cls(kernel, world)
    records = []
    radios = []
    for index, model in enumerate(models):
        node = world.add_node(node_name(index), mobility=model)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        # The handler is the leanest faithful record: payload already
        # carries (round, sender) and delivery instants are a pure
        # function of the round times, so re-reading the kernel clock per
        # record would only add identical harness overhead to both paths.
        radio.start_scanning(
            lambda payload, mac, distance, me=index: records.append(
                (payload, distance, me)
            )
        )
        radios.append(radio)
    pipeline_s = 0.0
    for round_index, fire_at in enumerate(SPEC.round_times()):
        kernel.run_until(fire_at)
        tick = time.perf_counter()
        for index, radio in enumerate(radios):
            radio.advertise_once(PAYLOAD_STRUCT.pack(round_index, index))
        kernel.run_until(fire_at + DRAIN_S)
        pipeline_s += time.perf_counter() - tick
    kernel.run_until(SPEC.duration_s)
    digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()[:16]
    return pipeline_s, digest, len(records), medium


def _best_timed_runs():
    """Interleaved minima of the two configurations.

    Every repetition is byte-identical work (same seed, same spec), so
    ``min`` is the honest estimator of each pipeline's cost — repetitions
    only ever differ by external machine noise, which inflates.  The two
    configurations *alternate* rather than running back-to-back: the
    vectorized run is ~30× shorter than the scalar reference, so its
    repetitions bunched together can all land inside one busy burst of a
    shared runner while the long scalar runs average across it.
    Alternating spreads both configurations' observations over the same
    wall-clock span, so their minima sample the same quiet windows.
    """
    vec_s, vec_digest, vec_count, _ = _timed_run(Medium)
    scalar_s, scalar_digest, scalar_count, _ = _timed_run(ReferenceMedium)
    for _ in range(TIMED_RUNS - 1):
        again_s, again_digest, again_count, _ = _timed_run(Medium)
        assert again_digest == vec_digest and again_count == vec_count
        vec_s = min(vec_s, again_s)
        again_s, again_digest, again_count, _ = _timed_run(ReferenceMedium)
        assert again_digest == scalar_digest and again_count == scalar_count
        scalar_s = min(scalar_s, again_s)
    # One closing short observation after the last scalar window, so the
    # vectorized minimum covers the full span the scalar one does.
    again_s, again_digest, again_count, _ = _timed_run(Medium)
    assert again_digest == vec_digest and again_count == vec_count
    vec_s = min(vec_s, again_s)
    return vec_s, vec_digest, vec_count, scalar_s, scalar_digest, scalar_count


def test_vectorized_pipeline_beats_scalar(monkeypatch: pytest.MonkeyPatch):
    print()
    (vec_s, vec_digest, vec_count,
     scalar_s, scalar_digest, scalar_count) = _best_timed_runs()
    assert vec_count == scalar_count
    assert vec_digest == scalar_digest
    assert vec_count > 0

    # Stage breakdown from a separate instrumented run, so the headline
    # speedup numbers carry zero instrumentation overhead.  Identical
    # seeds → identical bytes, and the pipeline actually exercised every
    # stage; the disjoint buckets sum to (at most) the end-to-end time.
    staged_s, staged_digest, _, staged = _timed_run(StageTimedMedium)
    assert staged_digest == vec_digest
    stages = staged.stage_s
    assert all(stages[name] > 0.0 for name in
               ("query", "probability", "acceptance", "delivery"))
    assert sum(stages.values()) <= staged_s
    assert staged.batch_cache_hits > 0  # same-cell senders shared gathers

    # The full engine agrees end-to-end: scalar serial, batch serial, and
    # 4-way sharded runs of the same spec digest identically.
    serial_vec = run_serial(SPEC)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "Medium", ReferenceMedium)
        serial_scalar = run_serial(SPEC)
    sharded = run_sharded(SPEC, shards=4)
    assert serial_vec.digest == serial_scalar.digest
    assert sharded.digest == serial_vec.digest
    assert sharded.record_count == serial_vec.record_count

    speedup = scalar_s / vec_s
    print(
        f"broadcast+delivery @ {SPEC.node_count} nodes / {SPEC.arena_m:.0f} m:"
        f" scalar {scalar_s * 1e3:8.1f}ms  vectorized {vec_s * 1e3:8.1f}ms"
        f"  ×{speedup:6.1f}  (numpy={array.backend_name()})"
    )
    print(
        "  stages: query {query:.1f}ms  probability {probability:.1f}ms"
        "  acceptance {acceptance:.1f}ms  delivery {delivery:.1f}ms".format(
            **{name: s * 1e3 for name, s in stages.items()}
        )
    )

    BENCH_PATH.write_text(
        json.dumps(
            {
                "schema": "repro.bench/medium_vectorized.v3",
                "node_count": SPEC.node_count,
                "arena_m": SPEC.arena_m,
                "rounds": SPEC.rounds,
                "seed": SPEC.seed,
                "records": vec_count,
                "scalar_s": scalar_s,
                "vectorized_s": vec_s,
                "speedup": speedup,
                "backend": array.backend_name(),
                "stages": {
                    "query_s": stages["query"],
                    "probability_s": stages["probability"],
                    "acceptance_s": stages["acceptance"],
                    "delivery_s": stages["delivery"],
                },
                "stages_total_s": sum(stages.values()),
                "staged_run_s": staged_s,
                "batch_cache": {
                    "hits": staged.batch_cache_hits,
                    "misses": staged.batch_cache_misses,
                },
                "delivery_digest": {
                    "scalar": scalar_digest,
                    "vectorized": vec_digest,
                },
                "digests_match": scalar_digest == vec_digest,
                "engine": {
                    "serial_vectorized": serial_vec.digest,
                    "serial_scalar": serial_scalar.digest,
                    "sharded4": sharded.digest,
                    "digest_match": serial_vec.digest
                    == serial_scalar.digest
                    == sharded.digest,
                },
                "smoke": SMOKE,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {BENCH_PATH}")

    required = 1.0 if SMOKE else REQUIRED_SPEEDUP
    assert speedup >= required, (
        f"vectorized pipeline only ×{speedup:.1f} over the scalar loop"
        f" (need ×{required})"
    )
