"""The parallel experiment runner.

Describes every evaluation artifact (Table 3/4/5, Fig 7, the ablations) as
a flat list of independent, picklable *jobs* — one simulation cell at one
seed each — fans them out over a process pool, and merges the results back
in declaration order.  Because every cell builds its own ``Testbed`` from
its own seed, parallel and serial runs are field-for-field identical.

Each finished cell is a structured :class:`CellResult` (experiment, cell,
seed, the driver's scalar result, attached artifacts, wall-clock).  Large
opt-in artifacts — per-tick traces, energy timelines — cross from worker to
parent via ``multiprocessing.shared_memory`` with only a handle on the pool
queue (:mod:`repro.runner.artifacts`), falling back to inline bytes where
shared memory is unavailable.

Entry points:

- ``python -m repro.runner table4 --workers 4`` (CLI; writes
  ``BENCH_runner.json`` with per-cell and total wall-clock), and
- :func:`run_experiment` (library; returns a :class:`RunReport`).
"""

from repro.runner.artifacts import (
    Artifact,
    ArtifactError,
    ArtifactHandle,
    AttachedResult,
    CellResult,
    attach,
)
from repro.runner.engine import RunReport, run_experiment
from repro.runner.jobs import ATTACH_CAPABLE, EXPERIMENTS, Job, jobs_for

__all__ = [
    "ATTACH_CAPABLE",
    "Artifact",
    "ArtifactError",
    "ArtifactHandle",
    "AttachedResult",
    "CellResult",
    "EXPERIMENTS",
    "Job",
    "RunReport",
    "attach",
    "jobs_for",
    "run_experiment",
]
