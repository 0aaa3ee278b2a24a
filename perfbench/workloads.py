"""The benchmark's four workloads, driven through public entry points only.

Every workload runs the simulator's default configuration: it passes no
``vectorized=`` or ``use_spatial_index=`` switch, sets no
``REPRO_NO_NUMPY``, and subclasses no ``Medium`` method.  Load is
closed-loop: units run one after another in this process, and the only
extra processes while they run are the two shard workers of ``sharded``.

A workload has three phases, which ``run.py`` times separately:

- importing ``modules`` (the import share of set-up, timed in fresh
  interpreters once the units have ended);
- ``setup(seed, rep)``, which builds everything up to the first simulated
  event of repetition ``rep``;
- ``run(state)``, which does the workload's fixed simulated work and
  returns its host time, its cells (timed pieces, for ``cell_ms``: a grid
  cell on ``paper``, a beacon round on ``dense`` and ``city``, the whole
  ``run_sharded`` call on ``sharded``) and its units (digest-checked
  pieces, for ``attempted``/``failed``: a grid cell, or a whole scene).

Given a tracer, ``run`` opens the ``run`` root span around exactly the
region it times, and a beacon scene then measures its own scan callbacks
apart (``RunResult.handler_s``).

Why these four (one per traffic regime of the batch ``Medium``):

- ``paper``: the paper's own grids.  Middleware layers do most of the work;
  the medium sees about one broadcast per instant with ~1.3 receivers.
- ``dense``: 2,000 scanners in a 250 m arena, ~90 receivers per broadcast;
  per-receiver delivery dominates and the middleware is idle.
- ``city``: 10,000 nodes in 4 km, ~2 receivers per broadcast; positions of
  every node are recomputed per instant, so sparse-broadcast and set-up
  costs show here.
- ``sharded``: the ``city`` scenario across two shard worker processes, the
  only workload that runs ``repro.sim.sharded``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: Paper grids the ``paper`` workload runs, in ``repro.runner.jobs`` order.
#: ``mobility`` and ``sharded`` are synthetic scale grids, not the paper's.
PAPER_GRIDS = ("table3", "table4", "table5", "fig7", "ablations")

#: Seeds the ``paper`` passes cycle through, each derived from the workload
#: seed; one pass runs every cell at one of them.
PAPER_SEEDS = 3

#: ``dense``: 2,000 nodes of the mixed-mobility recipe in a 250 m square.
DENSE_NODES = 2_000
DENSE_ARENA_M = 250.0

#: ``city``/``sharded``: the 10k-node city of ``sharded_exp.city_scenario``.
CITY_NODES = 10_000

#: Shard worker processes for ``sharded``: one per core of a 2-core host.
SHARDS = 2

#: Timed replays of a traced scene's deliveries (``Scene.handler_cost``).
HANDLER_REPLAYS = 5


@dataclass
class Unit:
    """One digest-checked piece of work: a grid cell or a whole scene run."""

    key: str
    digest: Optional[str]
    error: Optional[str] = None


@dataclass
class RunResult:
    """What one ``run`` call did: its host time, timed cells, checked units."""

    #: Host seconds of the fixed simulated work, digests excluded.
    run_s: float = 0.0
    cells: List[Tuple[str, float]] = field(default_factory=list)
    units: List[Unit] = field(default_factory=list)
    #: ``sharded`` only: the run's ``SimOutcome``, for its shard counters.
    outcome: Any = None
    #: Traced beacon scenes only: host seconds the harness's scan callbacks
    #: took inside ``BleRadio.deliver_batch`` (see ``Scene.handler_cost``).
    handler_s: float = 0.0


@contextmanager
def timed_run(result: RunResult, tracer: Any) -> Iterator[None]:
    """Time the enclosed work into ``result.run_s``; a root span if traced."""
    with tracer.root("run") if tracer is not None else nullcontext():
        started = clock()
        try:
            yield
        finally:
            result.run_s = clock() - started


# -- paper -------------------------------------------------------------------


class Paper:
    """Every cell of the paper's grids at seeds derived from the workload seed."""

    name = "paper"
    modules = ("repro.runner.jobs", "repro.util.rng")
    forks_workers = False
    #: Traced passes: one at each derived seed, so counts repeat exactly.
    traced_reps = PAPER_SEEDS

    def setup(self, seed: int, rep: int) -> List[Any]:
        """The jobs of pass ``rep``: every grid at derived seed ``rep % 3``."""
        from repro.runner.jobs import jobs_for
        from repro.util.rng import derive_seed

        cell_seed = derive_seed(seed, "perfbench", "paper", str(rep % PAPER_SEEDS))
        return [job for grid in PAPER_GRIDS for job in jobs_for(grid, seed=cell_seed)]

    def run(self, jobs: List[Any], tracer: Any = None) -> RunResult:
        result = RunResult()
        with timed_run(result, tracer):
            for job in jobs:
                key = f"{job.experiment}/{job.cell}@{job.seed}"
                started = clock()
                try:
                    digest = job.run().result_digest
                except Exception as error:  # a failed unit, not a crash
                    result.units.append(
                        Unit(key, None, f"{type(error).__name__}: {error}")
                    )
                    continue
                result.cells.append((key, clock() - started))
                result.units.append(Unit(key, digest))
        return result


# -- beacon scenes (dense, city) ---------------------------------------------

SCENE_MODULES = (
    "repro.experiments.sharded_exp",
    "repro.phy.world",
    "repro.radio.ble",
    "repro.radio.medium",
    "repro.sim.kernel",
    "repro.sim.sharded",
)


class Scene:
    """A built beacon scene: every radio scans, rounds are scheduled.

    The same recipe as ``repro.sim.sharded.run_serial``, split at the first
    simulated event so set-up and run are timed apart.
    """

    def __init__(self, spec: Any) -> None:
        from repro.phy.world import World
        from repro.radio.base import Device
        from repro.radio.ble import BleRadio
        from repro.radio.medium import Medium
        from repro.sim.kernel import Kernel
        from repro.sim.sharded import build_models
        from repro.sim.sharded.shard import node_name
        from repro.sim.sharded.spec import PAYLOAD_STRUCT

        self.spec = spec
        self.kernel = Kernel(seed=spec.seed)
        world = World(self.kernel)
        medium = Medium(self.kernel, world)
        #: The delivery log, flat: (time, sender, receiver, round, distance)
        #: per delivery.  Its ints and floats are not tracked by the cycle
        #: collector, so recording half a million deliveries does not make
        #: the run's collections any more frequent.
        self.log: List[float] = []
        self.radios: List[Any] = []
        self.handlers: List[Callable[[bytes, Any, float], None]] = []
        for index, model in enumerate(build_models(spec)):
            node = world.add_node(node_name(index), mobility=model)
            device = Device(self.kernel, node)
            radio = device.add_radio(BleRadio(device, medium))
            radio.enable()
            self.handlers.append(self._handler(index))
            radio.start_scanning(self.handlers[-1])
            self.radios.append(radio)
        for round_index, fire_at in enumerate(spec.round_times()):
            for index, radio in enumerate(self.radios):
                payload = PAYLOAD_STRUCT.pack(round_index, index)
                self.kernel.call_at(
                    fire_at, lambda r=radio, p=payload: r.advertise_once(p)
                )

    def _handler(self, me: int) -> Callable[[bytes, Any, float], None]:
        """The scan callback of radio ``me``, recording each delivery."""
        from repro.sim.sharded.spec import PAYLOAD_STRUCT

        extend = self.log.extend
        kernel = self.kernel
        unpack = PAYLOAD_STRUCT.unpack

        def handler(payload: bytes, mac: Any, distance: float) -> None:
            round_index, sender = unpack(payload)
            extend((kernel.now, sender, me, round_index, distance))
        return handler

    def records(self) -> List[Tuple[float, int, int, int, float]]:
        """The delivery log as ``repro.sim.sharded`` records."""
        return list(zip(*[iter(self.log)] * 5))

    def run(self, tracer: Any = None) -> RunResult:
        """Run round by round (one cell each), drain, then digest the log."""
        from repro.sim.sharded import delivery_digest

        result = RunResult()
        half_period = self.spec.beacon_period_s / 2.0
        with timed_run(result, tracer):
            for round_index, fire_at in enumerate(self.spec.round_times()):
                started = clock()
                self.kernel.run_until(fire_at + half_period)
                result.cells.append((f"round{round_index}", clock() - started))
            self.kernel.run_until(self.spec.duration_s)
        records = self.records()
        result.units.append(Unit("scene", delivery_digest(records)))
        if tracer is not None:
            result.handler_s = self.handler_cost(records)
        # Frees the log even when the simulator keeps the finished scene
        # alive (its per-stamp numpy object arrays hide the scene's cycles
        # from the collector), so repeated units do not pile it up.
        self.log.clear()
        return result

    def handler_cost(self, records: List[Tuple[float, int, int, int, float]]) -> float:
        """Host seconds the scan callbacks of ``records`` take.

        Replays the deliveries into their receivers' callbacks the way
        ``BleRadio.deliver_batch`` makes them (one payload object per
        broadcast, its receivers in order), and subtracts the same loops
        without the call, so the traced run need not time each of its half a
        million callbacks.  Each loop's figure is the fastest of
        ``HANDLER_REPLAYS``: the callbacks' own cost, without the host's
        interruptions, which stay in the ``deliver_batch`` self time this
        figure is taken out of.  Every delivery of a beacon scene reaches
        its callback from ``deliver_batch``: no radio changes state during
        the run and there are no halo mirrors.
        """
        from repro.sim.sharded.spec import PAYLOAD_STRUCT

        broadcasts: List[Tuple[bytes, Any, List[Tuple[Any, float]]]] = []
        last = None
        for time_s, sender, me, round_index, distance in records:
            if (time_s, sender) != last:
                last = (time_s, sender)
                receivers: List[Tuple[Any, float]] = []
                broadcasts.append((PAYLOAD_STRUCT.pack(round_index, sender),
                                   self.radios[sender].address, receivers))
            receivers.append((self.handlers[me], distance))
        replay_s, loop_s = [], []
        for _ in range(HANDLER_REPLAYS):
            self.log.clear()
            started = clock()
            for payload, mac, receivers in broadcasts:
                for handler, distance in receivers:
                    handler(payload, mac, distance)
            replay_s.append(clock() - started)
            started = clock()
            for payload, mac, receivers in broadcasts:
                for handler, distance in receivers:
                    pass
            loop_s.append(clock() - started)
        self.log.clear()
        return min(replay_s) - min(loop_s)


class Dense:
    """2,000 mixed-mobility scanners in a 250 m arena, three beacon rounds."""

    name = "dense"
    modules = SCENE_MODULES
    forks_workers = False
    traced_reps = 1

    def spec(self, seed: int) -> Any:
        from repro.sim.sharded import ScenarioSpec

        return ScenarioSpec(
            name=f"dense-{DENSE_NODES}",
            arena_m=DENSE_ARENA_M,
            node_count=DENSE_NODES,
            rounds=3,
            beacon_period_s=10.0,
            horizon_s=10.0,
            seed=seed,
        )

    def setup(self, seed: int, rep: int) -> Scene:
        return Scene(self.spec(seed))

    def run(self, scene: Scene, tracer: Any = None) -> RunResult:
        return scene.run(tracer)


class City(Dense):
    """The 10k-node city (4 km arena, ~2 neighbours per node), run serially."""

    name = "city"

    def spec(self, seed: int) -> Any:
        from repro.experiments.sharded_exp import city_scenario

        return city_scenario(CITY_NODES, seed=seed)


class Sharded(City):
    """The ``city`` spec through ``run_sharded`` on two worker processes."""

    name = "sharded"
    forks_workers = True

    def setup(self, seed: int, rep: int) -> Any:
        return self.spec(seed)

    def run(self, spec: Any, tracer: Any = None) -> RunResult:
        from repro.sim.sharded import run_sharded

        result = RunResult()
        with timed_run(result, tracer):
            outcome = run_sharded(spec, SHARDS, processes=True)
        result.cells.append(("run_sharded", result.run_s))
        result.units.append(Unit("scene", outcome.digest))
        result.outcome = outcome
        return result

    def reference_digest(self, seed: int) -> str:
        """``city``'s digest at this seed, which ``sharded`` must reproduce."""
        return City().setup(seed, 0).run().units[0].digest


WORKLOADS: Dict[str, Any] = {
    workload.name: workload for workload in (Paper(), Dense(), City(), Sharded())
}
