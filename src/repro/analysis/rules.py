"""The analysis rule catalogue: determinism, sim-time and fork-safety.

Each rule has a stable code, a short kebab-case name used in reports, a
statement of the invariant it protects, and the approved alternative.  The
per-file passes (:mod:`repro.analysis.scopes` →
:mod:`repro.analysis.dataflow` → :mod:`repro.analysis.visitor`) decide
*where* a rule fires; this module records *what* each rule means and which
paths are exempt **by design** (the module that owns the invariant is
allowed to implement it — ``repro.util.rng`` and the tripwire may import
``random``, the runner's timing code may read the clock).

The catalogue holds only what no runtime gate enforces: the comment above
each rule says why the serial == parallel == sharded digest gates, the
scalar-oracle parity tests, ``MirrorNodeError`` and the RNG tripwire would
all pass code that breaks it.

Rules with ``only_paths`` fire nowhere else: FRK001 is scoped to
``repro/runner/``, where code actually crosses process boundaries — a
module-level registry in single-process simulation code is ordinary
Python, not a hazard.

A finding is fixed in the code.  Where a rule is wrong for a path by
design, the exception goes here, as ``exempt_paths`` or ``only_paths``
with its reason in the comment beside it; there are no per-line
exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


def _path_matches_prefix(path: str, prefix: str) -> bool:
    """Separator-aware prefix match for exempt/only path scoping.

    A prefix matches the identical path, or any path below it when the
    prefix names a directory — it must end at a path separator either way,
    so ``repro/runner`` (with or without the trailing slash) covers
    ``repro/runner/cli.py`` but never ``repro/runner_utils.py``.
    """
    if path == prefix or path == prefix.rstrip("/"):
        return True
    if not prefix.endswith("/"):
        prefix += "/"
    return path.startswith(prefix)


@dataclass(frozen=True)
class Rule:
    """One invariant the linter enforces."""

    code: str
    name: str
    summary: str
    suggestion: str
    #: Normalized-path prefixes where the rule never fires (the invariant's
    #: own implementation).  Everywhere else a finding is fixed in code.
    exempt_paths: Tuple[str, ...] = ()
    #: When non-empty, the rule fires *only* under these normalized-path
    #: prefixes (e.g. fork-safety rules are runner-scoped).
    only_paths: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(_path_matches_prefix(path, p) for p in self.exempt_paths):
            return False
        if self.only_paths:
            return any(_path_matches_prefix(path, p) for p in self.only_paths)
        return True


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str  # normalized (posix, rooted at the repro package where possible)
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


_RULE_LIST = [
    # -- DET: determinism -----------------------------------------------------
    # The tripwire guards only runner cells and shard workers, and only
    # the paths a run executes.
    Rule(
        code="DET001",
        name="global-rng",
        summary="use of the process-global random/numpy.random state",
        suggestion="draw from a SeededRng stream (repro.util.rng), deriving "
        "child streams with .child(...) where independence is needed",
        exempt_paths=("repro/util/rng.py", "repro/analysis/"),
    ),
    # No runtime gate: a clock read changes results only on another host.
    Rule(
        code="DET002",
        name="wall-clock",
        summary="wall-clock read inside simulation code",
        suggestion="use kernel.now (simulated time); only the runner's "
        "timing code may read the host clock",
        exempt_paths=(
            "repro/runner/engine.py",
            # The sharded coordinator times shard wall-clock for its
            # ShardResults; simulated time still comes from the kernels.
            "repro/sim/sharded/engine.py",
        ),
    ),
    # Every digest gate compares forked processes, which share
    # PYTHONHASHSEED, so salted hashes agree in all of them.
    Rule(
        code="DET003",
        name="builtin-hash",
        summary="builtin hash() used for derivation (salted per process "
        "via PYTHONHASHSEED)",
        suggestion="derive seeds/identities with repro.util.rng.derive_seed "
        "or hashlib",
    ),
    # Forked processes share PYTHONHASHSEED and heap layout, so set order
    # agrees across every digest gate.
    Rule(
        code="DET004",
        name="unsorted-set-iteration",
        summary="iteration over a set in an ordering-sensitive position",
        suggestion="wrap the set in sorted(...) at the point of iteration "
        "(membership tests, order-insensitive reducers, and pure bitwise "
        "accumulation are fine)",
    ),
    # Forked processes share their heap layout, so id() order agrees
    # across every digest gate.
    Rule(
        code="DET005",
        name="id-ordering",
        summary="id() — object addresses vary per process, so any ordering "
        "or keying built on them does too",
        suggestion="key on a stable attribute (a name, an address, a "
        "sequence number); pure in-scope dedup whose output is sorted "
        "afterwards is recognised as safe",
        # The analysis passes key AST nodes by id() within one in-process
        # walk (identity, never ordering) — the tooling owns this invariant.
        exempt_paths=("repro/analysis/",),
    ),
    # No runtime gate.
    Rule(
        code="DET006",
        name="mutable-default",
        summary="mutable default argument — state leaks across calls and "
        "instances, diverging runs that share the function object",
        suggestion="default to None and construct the container inside the "
        "function body",
    ),
    # No runtime gate: an environment read changes results only on
    # another host.
    Rule(
        code="DET007",
        name="environ-read",
        summary="os.environ read inside simulation code — results would "
        "depend on the host environment",
        suggestion="thread configuration through explicit parameters "
        "(scenario/config objects) instead of the environment",
    ),
    # -- SIM: sim-time hygiene ------------------------------------------------
    # No runtime gate.
    Rule(
        code="SIM001",
        name="host-sleep",
        summary="time.sleep() inside simulation code — blocks the host "
        "thread without advancing simulated time",
        suggestion="schedule with kernel.call_in(delay, fn) or yield "
        "repro.sim.process.sleep(delay) inside a sim process",
        exempt_paths=("repro/runner/",),
    ),
    # No runtime gate; it has caught a real clock-drift bug.
    Rule(
        code="SIM002",
        name="sim-time-accumulation",
        summary="a name seeded from kernel.now is advanced with float += — "
        "accumulated rounding drifts from the kernel's exact event clock",
        suggestion="re-read kernel.now where the current instant is needed "
        "instead of integrating deltas by hand",
        exempt_paths=("repro/runner/",),
    ),
    # -- FRK: fork/pickle safety in the parallel runner -----------------------
    # Digest gates compare cell values only: a worker-side registry or
    # counter that the parent reads still passes them.
    Rule(
        code="FRK001",
        name="fork-shared-module-state",
        summary="module-level mutable state mutated inside runner "
        "functions — each forked/spawned worker mutates its own copy, "
        "silently diverging from the parent",
        suggestion="keep per-run state on Job/engine objects that cross the "
        "pool explicitly",
        only_paths=("repro/runner/",),
    ),
]

#: code -> rule, in catalogue order.
RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}

