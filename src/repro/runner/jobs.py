"""Experiment cells as picklable jobs.

A :class:`Job` names one simulation cell — a module-level driver function
plus arguments — so a worker process can reconstruct and run it from a
pickle.  The per-experiment factories below enumerate cells in the same
declaration order as the serial drivers (``run_table4`` & co.), which is
the order the engine merges results back into.

Running a job yields a structured :class:`~repro.runner.artifacts.CellResult`:
the driver's scalar result plus any artifacts the driver attached (drivers
that support it take ``attach_trace=`` / ``attach_energy_timeline=`` and
return an :class:`~repro.runner.artifacts.AttachedResult`; see
:data:`ATTACH_CAPABLE`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    ablations,
    baseline_current,
    controlled,
    disseminate_exp,
    mobility_exp,
    prophet_exp,
    sharded_exp,
)
from repro.runner.artifacts import CellResult

#: Experiments whose drivers accept ``attach_trace`` /
#: ``attach_energy_timeline`` keyword arguments.  ``jobs_for`` forwards the
#: flags only to these; asking for artifacts on any other grid is a no-op
#: (the cells simply carry no artifacts).
ATTACH_CAPABLE = ("table5", "fig7")


@dataclass(frozen=True)
class Job:
    """One experiment cell at one seed; picklable by construction."""

    experiment: str
    cell: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def run(self) -> CellResult:
        """Execute the cell in-process; return its structured result.

        Bare driver returns become artifact-less cell results; drivers that
        attached payloads come back with them encoded as artifacts.
        """
        raw = self.fn(*self.args, **self.kwargs)
        return CellResult.from_raw(self.experiment, self.cell, self.seed, raw)


def _attach_kwargs(attach_trace: bool,
                   attach_energy_timeline: bool) -> Dict[str, bool]:
    kwargs: Dict[str, bool] = {}
    if attach_trace:
        kwargs["attach_trace"] = True
    if attach_energy_timeline:
        kwargs["attach_energy_timeline"] = True
    return kwargs


def _table3_jobs(seed: Optional[int], attach: Dict[str, bool]) -> List[Job]:
    seed = 3 if seed is None else seed
    return [
        Job(
            experiment="table3",
            cell=baseline_current.OPERATIONS[index].__name__.replace("measure_", ""),
            fn=baseline_current.measure_operation,
            args=(index,),
            kwargs={"seed": seed},
            seed=seed,
        )
        for index in baseline_current.iter_cells()
    ]


def _table4_jobs(seed: Optional[int], attach: Dict[str, bool]) -> List[Job]:
    seed = 1 if seed is None else seed
    jobs = []
    for system, context_tech, data_tech, response_bytes in controlled.iter_cells():
        size = "30B" if response_bytes == controlled.SMALL_RESPONSE_BYTES else "25MB"
        jobs.append(
            Job(
                experiment="table4",
                cell=f"{system}:{context_tech}/{data_tech}/{size}",
                fn=controlled.run_cell,
                args=(system, context_tech, data_tech, response_bytes),
                kwargs={"seed": seed},
                seed=seed,
            )
        )
    return jobs


def _table5_jobs(seed: Optional[int], attach: Dict[str, bool]) -> List[Job]:
    seed = 11 if seed is None else seed
    return [
        Job(
            experiment="table5",
            cell=f"{variant}@{rate_kbps:g}KBps",
            fn=disseminate_exp.run_cell,
            args=(variant, rate_kbps),
            kwargs={"seed": seed, **attach},
            seed=seed,
        )
        for variant, rate_kbps in disseminate_exp.iter_cells()
    ]


def _fig7_jobs(seed: Optional[int], attach: Dict[str, bool]) -> List[Job]:
    seed = 21 if seed is None else seed
    return [
        Job(
            experiment="fig7",
            cell=variant,
            fn=prophet_exp.run_variant,
            args=(variant,),
            kwargs={"seed": seed, **attach},
            seed=seed,
        )
        for variant in prophet_exp.iter_cells()
    ]


def _mobility_jobs(seed: Optional[int], attach: Dict[str, bool]) -> List[Job]:
    seed = 41 if seed is None else seed
    return [
        Job(
            experiment="mobility",
            cell=f"{mobility_exp.CELL}@{mobility_exp.NODE_COUNT}",
            fn=mobility_exp.run_scene,
            kwargs={"seed": seed},
            seed=seed,
        )
    ]


def _sharded_jobs(
    seed: Optional[int], attach: Dict[str, bool], shards: Optional[int] = None
) -> List[Job]:
    seed = 61 if seed is None else seed
    shards = sharded_exp.DEFAULT_SHARDS if shards is None else shards
    return [
        Job(
            experiment="sharded",
            cell=f"{variant}@{sharded_exp.NODE_COUNT}",
            fn=sharded_exp.run_cell,
            args=(variant,),
            kwargs={"seed": seed, "shards": shards},
            seed=seed,
        )
        for variant in sharded_exp.iter_cells()
    ]


#: (section name, point function, grid of point arguments, canonical seed).
_ABLATION_SECTIONS = [
    ("beacon_interval", ablations.beacon_interval_point,
     ablations.BEACON_INTERVALS, 31),
    ("secondary_listen", ablations.secondary_listen_point,
     ablations.LISTEN_PERIODS, 32),
    ("context_technology", ablations.context_technology_point,
     ablations.CONTEXT_TECHS, 33),
    ("selection_policy", ablations.selection_policy_point,
     ablations.SELECTION_POLICIES, 34),
    ("adaptive_beacon", ablations.adaptive_beacon_point,
     ablations.BEACON_MODES, 35),
]


def _ablations_jobs(seed: Optional[int], attach: Dict[str, bool]) -> List[Job]:
    jobs = []
    for section, fn, grid, default_seed in _ABLATION_SECTIONS:
        section_seed = default_seed if seed is None else seed
        for value in grid:
            jobs.append(
                Job(
                    experiment="ablations",
                    cell=f"{section}/{value}",
                    fn=fn,
                    args=(value,),
                    kwargs={"seed": section_seed},
                    seed=section_seed,
                )
            )
    return jobs


#: experiment name -> factory(seed, attach) -> declaration-ordered job list.
EXPERIMENTS: Dict[
    str, Callable[[Optional[int], Dict[str, bool]], List[Job]]
] = {
    "table3": _table3_jobs,
    "table4": _table4_jobs,
    "table5": _table5_jobs,
    "fig7": _fig7_jobs,
    "ablations": _ablations_jobs,
    "mobility": _mobility_jobs,
    "sharded": _sharded_jobs,
}


def _make_jobs(
    name: str,
    seed: Optional[int],
    attach: Dict[str, bool],
    shards: Optional[int],
) -> List[Job]:
    factory = EXPERIMENTS[name]
    scoped_attach = attach if name in ATTACH_CAPABLE else {}
    if name == "sharded":
        return _sharded_jobs(seed, scoped_attach, shards=shards)
    return factory(seed, scoped_attach)


def jobs_for(
    experiment: str,
    seed: Optional[int] = None,
    attach_trace: bool = False,
    attach_energy_timeline: bool = False,
    shards: Optional[int] = None,
) -> List[Job]:
    """Enumerate the jobs of ``experiment`` (or of every one, for "all").

    The attach flags are forwarded to the drivers of
    :data:`ATTACH_CAPABLE` experiments; ``shards`` parameterizes the
    "sharded" grid's partition count; other grids ignore both.
    """
    attach = _attach_kwargs(attach_trace, attach_energy_timeline)
    if experiment == "all":
        jobs = []
        for name in EXPERIMENTS:
            jobs.extend(_make_jobs(name, seed, attach, shards))
        return jobs
    if experiment not in EXPERIMENTS:
        known = ", ".join([*EXPERIMENTS, "all"])
        raise ValueError(
            f"unknown experiment {experiment!r} (choose from: {known})"
        )
    return _make_jobs(experiment, seed, attach, shards)
