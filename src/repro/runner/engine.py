"""The fan-out engine: jobs → process pool → declaration-ordered results.

Every job is an independent simulation (fresh kernel, fresh seed), so the
pool needs no shared state and results can be merged purely by job index.
Worker processes are forked where the platform allows it: the parent has
already imported the simulator, so a forked worker starts hot instead of
re-importing ~160 modules per process.

Each worker returns its :class:`CellResult` — attached artifact bytes
included (see :mod:`repro.runner.artifacts`) — through the pool's pickle
pipe, the same way whether a run is serial or parallel.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tripwire import guard as rng_tripwire
from repro.util import array
from repro.runner.artifacts import CellResult
from repro.runner.jobs import Job, jobs_for

#: JSON schema tag for BENCH_runner.json, bumped on layout changes.
#: (v2 dropped the per-artifact "transport" key; artifact metadata,
#: digest_match, and the array_backend/numpy_version pair are optional.)
BENCH_SCHEMA = "repro.runner/bench.v2"


@dataclass
class RunReport:
    """Everything one runner invocation produced, in declaration order."""

    experiment: str
    seeds: List[Optional[int]]
    workers: int  # 0 means in-process serial execution
    start_method: Optional[str]
    total_wall_s: float
    outcomes: List[CellResult]
    serial_wall_s: Optional[float] = None  # set by --compare-serial
    #: set by --compare-serial: did every cell's value digest *and* artifact
    #: digests match between the parallel run and the serial replay?
    digest_match: Optional[bool] = None
    digest_mismatches: List[str] = field(default_factory=list)
    #: The array backend of the coordinating process ("numpy") and the
    #: numpy version string.  Parity debugging needs these: a digest that
    #: differs between two machines is meaningless without knowing which
    #: kernels ran.
    array_backend: str = field(default_factory=array.backend_name)
    numpy_version: str = field(default_factory=array.numpy_version)

    @property
    def mode(self) -> str:
        return "serial" if self.workers == 0 else "parallel"

    @property
    def speedup(self) -> Optional[float]:
        if self.serial_wall_s is None or self.total_wall_s <= 0.0:
            return None
        return self.serial_wall_s / self.total_wall_s

    @property
    def results(self) -> List[Any]:
        """Structured results in declaration order (all seeds, seed-major)."""
        return [outcome.value for outcome in self.outcomes]

    def results_by_seed(self) -> List[List[Any]]:
        """One declaration-ordered result list per requested seed.

        Jobs are enumerated seed-major in equal-sized blocks, so the flat
        outcome list splits evenly back into per-seed grids.
        """
        block = len(self.outcomes) // max(1, len(self.seeds))
        return [
            [o.value for o in self.outcomes[i * block:(i + 1) * block]]
            for i in range(len(self.seeds))
        ]

    def to_bench_dict(self) -> Dict[str, Any]:
        """The BENCH_runner.json payload (see EXPERIMENTS.md for the schema)."""
        payload: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "experiment": self.experiment,
            "seeds": self.seeds,
            "mode": self.mode,
            "workers": self.workers,
            "start_method": self.start_method,
            "total_wall_s": self.total_wall_s,
            "array_backend": self.array_backend,
            "numpy_version": self.numpy_version,
            "cells": [],
        }
        for outcome in self.outcomes:
            cell: Dict[str, Any] = {
                "experiment": outcome.experiment,
                "cell": outcome.cell,
                "seed": outcome.seed,
                "wall_s": outcome.wall_s,
                "result_digest": outcome.result_digest,
            }
            if outcome.artifacts:
                cell["artifacts"] = {
                    key: {"bytes": artifact.length, "digest": artifact.digest}
                    for key, artifact in outcome.artifacts.items()
                }
            payload["cells"].append(cell)
        if self.serial_wall_s is not None:
            payload["serial_wall_s"] = self.serial_wall_s
            payload["speedup"] = self.speedup
        if self.digest_match is not None:
            payload["digest_match"] = self.digest_match
            if self.digest_mismatches:
                payload["digest_mismatches"] = self.digest_mismatches
        return payload


def _timed_run(work_item: Tuple[int, Job]) -> Tuple[int, CellResult, float]:
    """Worker entry point: run one job, report (index, cell result, wall).

    The job runs under the global-RNG tripwire: a driver that touches
    process-global RNG state (``random.*`` / ``numpy.random.*``) fails its
    cell with a :class:`repro.analysis.tripwire.GlobalRngError` naming the
    call site, instead of silently degrading cross-process determinism.
    """
    index, job = work_item
    start = time.perf_counter()
    with rng_tripwire(label=f"{job.experiment}:{job.cell}"):
        cell = job.run()
    return index, cell, time.perf_counter() - start


def _pick_start_method() -> str:
    # fork starts hot (inherits the parent's imports); fall back to the
    # platform default where fork is unavailable (e.g. Windows).
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


def execute_jobs(
    jobs: Sequence[Job],
    workers: Optional[int] = None,
    serial: bool = False,
) -> Tuple[List[CellResult], float, Optional[str]]:
    """Run ``jobs``; return (declaration-ordered cell results, wall, method).

    A worker that dies mid-cell breaks the pool, which surfaces here as
    :class:`concurrent.futures.process.BrokenProcessPool`.
    """
    start = time.perf_counter()
    method: Optional[str] = None
    slots: List[Optional[Tuple[CellResult, float]]] = [None] * len(jobs)
    work = list(enumerate(jobs))
    if serial or not jobs:
        for item in work:
            index, cell, wall = _timed_run(item)
            slots[index] = (cell, wall)
    else:
        method = _pick_start_method()
        context = multiprocessing.get_context(method)
        pool_size = workers or context.cpu_count()
        with ProcessPoolExecutor(max_workers=pool_size,
                                 mp_context=context) as pool:
            for index, cell, wall in pool.map(_timed_run, work, chunksize=1):
                slots[index] = (cell, wall)
    outcomes: List[CellResult] = []
    for index in range(len(jobs)):
        cell, wall = slots[index]
        cell.wall_s = wall
        outcomes.append(cell)
    return outcomes, time.perf_counter() - start, method


def run_experiment(
    experiment: str,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    serial: bool = False,
    compare_serial: bool = False,
    attach_trace: bool = False,
    attach_energy_timeline: bool = False,
    shards: Optional[int] = None,
) -> RunReport:
    """Run one experiment grid (or "all") across ``seeds``.

    ``seeds=None`` runs each experiment at its canonical default seed —
    the exact grid the serial drivers produce.  With ``serial=True`` (or
    ``workers`` in {0, 1} semantics via the CLI) everything runs in this
    process; otherwise jobs fan out over ``workers`` forked processes.
    ``compare_serial=True`` additionally replays the grid serially, records
    the parallel-vs-serial wall-clock ratio, and verifies that every cell's
    result digest and artifact digests match between the two modes.  Every
    cell runs under the global-RNG tripwire.

    ``attach_trace=`` / ``attach_energy_timeline=`` opt the artifact-capable
    drivers (see :data:`repro.runner.jobs.ATTACH_CAPABLE`) into returning
    per-tick trace streams / per-component energy timelines as artifacts.
    """
    seed_list: List[Optional[int]] = list(seeds) if seeds else [None]
    jobs: List[Job] = []
    for seed in seed_list:
        jobs.extend(jobs_for(
            experiment, seed,
            attach_trace=attach_trace,
            attach_energy_timeline=attach_energy_timeline,
            shards=shards,
        ))
    outcomes, total_wall, method = execute_jobs(
        jobs, workers=workers, serial=serial)
    report = RunReport(
        experiment=experiment,
        seeds=seed_list,
        workers=0 if serial else (workers or multiprocessing.cpu_count()),
        start_method=method,
        total_wall_s=total_wall,
        outcomes=outcomes,
    )
    if compare_serial and not serial:
        replay, serial_wall, _ = execute_jobs(jobs, serial=True)
        report.serial_wall_s = serial_wall
        report.digest_mismatches = [
            f"parallel[{parallel_cell.digest_line()}] != "
            f"serial[{serial_cell.digest_line()}]"
            for parallel_cell, serial_cell in zip(outcomes, replay)
            if parallel_cell.digest_line() != serial_cell.digest_line()
        ]
        report.digest_match = not report.digest_mismatches
    return report
