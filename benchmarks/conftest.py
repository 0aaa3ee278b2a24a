"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints it
in the paper's layout (run pytest with ``-s`` to see them), and asserts the
*shape* of the results — who wins, by roughly what factor, where crossovers
fall — per the reproduction contract in DESIGN.md.
"""

from __future__ import annotations


def run_once(benchmark, function, *args, **kwargs):
    """Run a deterministic experiment exactly once under the benchmark timer.

    The experiments are deterministic simulations: repeated rounds measure
    wall-clock noise, not the system, so one round is the right sample.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
