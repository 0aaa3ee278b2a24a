"""The runner arms the tripwire around every cell (ROADMAP's RNG audit).

A driver that touches process-global RNG state must fail its cell with a
clear error naming the offending call site; clean drivers run unchanged.
Runtime code loads the tripwire alone, never the lint framework.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.tripwire import GlobalRngError
from repro.runner.engine import execute_jobs
from repro.runner.jobs import Job
from repro.util.rng import SeededRng


def _dirty_driver(seed: int) -> float:
    # Module-level function so the job pickles into worker processes.
    return random.random() + seed


def _clean_driver(seed: int) -> float:
    return SeededRng(seed).random()


def _job(fn, cell: str) -> Job:
    return Job(experiment="unit", cell=cell, fn=fn, args=(3,), seed=3)


def test_dirty_cell_fails_loudly_in_serial_mode():
    with pytest.raises(GlobalRngError) as excinfo:
        execute_jobs([_job(_dirty_driver, "dirty")], serial=True)
    message = str(excinfo.value)
    assert "random.random()" in message
    assert "test_runner_tripwire.py" in message  # the offending call site
    assert "unit:dirty" in message  # the failing cell


def test_dirty_cell_fails_loudly_across_the_pool():
    with pytest.raises(GlobalRngError, match="unit:dirty"):
        execute_jobs([_job(_dirty_driver, "dirty")], workers=2)


def test_clean_cell_passes_with_tripwire_armed():
    outcomes, _, _ = execute_jobs([_job(_clean_driver, "clean")], serial=True)
    assert outcomes[0].value == SeededRng(3).random()


def test_runtime_imports_load_only_the_tripwire():
    # A fresh interpreter: this test process has imported the lint already.
    probe = (
        "import sys\n"
        "import repro.runner.engine, repro.sim.sharded\n"
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.analysis.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60)
    assert result.stdout.strip() == "['repro.analysis.tripwire']"
