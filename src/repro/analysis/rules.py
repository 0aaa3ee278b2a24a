"""The analysis rule catalogue: determinism, sim-time, fork-safety, API.

Each rule has a stable code, a short kebab-case name used in reports, a
statement of the invariant it protects, and the approved alternative.  The
multi-pass framework (:mod:`repro.analysis.scopes` →
:mod:`repro.analysis.dataflow` → :mod:`repro.analysis.visitor`) decides
*where* a rule fires; this module records *what* each rule means and which
paths are exempt **by design** (the module that owns the invariant is
allowed to implement it — ``repro.util.rng`` may import ``random``, the
runner's timing code may read the clock, the artifact helpers may allocate
shared memory, the analysis tooling may time itself).

Rules with ``only_paths`` fire nowhere else: the FRK fork-safety family is
scoped to ``repro/runner/``, where code actually crosses process
boundaries — a module-level registry in single-process simulation code is
ordinary Python, not a hazard.

Anything else that needs an exception takes a per-line waiver in the
baseline file instead, with a one-line justification (see
:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

#: Bumped whenever the analysis passes change behaviour; folded into the
#: incremental cache key so stale cached findings can never survive a rule
#: change (see :mod:`repro.analysis.cache`).
ANALYSIS_VERSION = 8


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
    #: own implementation).  Everything else must use a baseline waiver.
    exempt_paths: Tuple[str, ...] = ()
    #: When non-empty, the rule fires *only* under these normalized-path
    #: prefixes (e.g. fork-safety rules are runner-scoped).
    only_paths: Tuple[str, ...] = ()
    #: Lifecycle of the interface an API rule polices.  ``"active"`` rules
    #: guard a live invariant; ``"deprecating"`` rules flag a shimmed
    #: interface mid-removal (the shim's own module is exempt);
    #: ``"removed"`` rules outlive the interface — the shim is gone, the
    #: exemptions are gone, and any match is a reintroduction.
    status: str = "active"

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

    @property
    def key(self) -> Tuple[str, int, str]:
        """The identity a baseline waiver matches on."""
        return (self.path, self.line, self.code)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


_RULE_LIST = [
    # -- DET: determinism -----------------------------------------------------
    Rule(
        code="DET001",
        name="global-rng",
        summary="use of the process-global random/numpy.random state",
        suggestion="draw from a SeededRng stream (repro.util.rng), deriving "
        "child streams with .child(...) where independence is needed",
        exempt_paths=("repro/util/rng.py", "repro/analysis/"),
    ),
    Rule(
        code="DET002",
        name="wall-clock",
        summary="wall-clock read inside simulation code",
        suggestion="use kernel.now (simulated time); only the runner's "
        "timing code and the analysis tooling may read the host clock",
        exempt_paths=(
            "repro/runner/engine.py",
            "repro/analysis/",
            # The sharded coordinator times shard wall-clock for its
            # ShardResults; simulated time still comes from the kernels.
            "repro/sim/sharded/engine.py",
        ),
    ),
    Rule(
        code="DET003",
        name="builtin-hash",
        summary="builtin hash() used for derivation (salted per process "
        "via PYTHONHASHSEED)",
        suggestion="derive seeds/identities with repro.util.rng.derive_seed "
        "or hashlib",
    ),
    Rule(
        code="DET004",
        name="unsorted-set-iteration",
        summary="iteration over a set in an ordering-sensitive position",
        suggestion="wrap the set in sorted(...) at the point of iteration "
        "(membership tests, order-insensitive reducers, and pure bitwise "
        "accumulation are fine)",
    ),
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
    Rule(
        code="DET006",
        name="mutable-default",
        summary="mutable default argument — state leaks across calls and "
        "instances, diverging runs that share the function object",
        suggestion="default to None and construct the container inside the "
        "function body",
    ),
    Rule(
        code="DET007",
        name="environ-read",
        summary="os.environ read inside simulation code — results would "
        "depend on the host environment",
        suggestion="thread configuration through explicit parameters "
        "(scenario/config objects) instead of the environment",
    ),
    # -- SIM: sim-time hygiene ------------------------------------------------
    Rule(
        code="SIM001",
        name="host-sleep",
        summary="time.sleep() inside simulation code — blocks the host "
        "thread without advancing simulated time",
        suggestion="schedule with kernel.call_in(delay, fn) or yield "
        "repro.sim.process.sleep(delay) inside a sim process",
        exempt_paths=("repro/runner/", "repro/analysis/"),
    ),
    Rule(
        code="SIM002",
        name="sim-time-accumulation",
        summary="a name seeded from kernel.now is advanced with float += — "
        "accumulated rounding drifts from the kernel's exact event clock",
        suggestion="re-read kernel.now where the current instant is needed "
        "instead of integrating deltas by hand",
        exempt_paths=("repro/runner/", "repro/analysis/"),
    ),
    Rule(
        code="SIM003",
        name="time-domain-mixing",
        summary="an expression combines kernel.now-derived sim-time with a "
        "wall-clock value — the result is meaningless in either domain",
        suggestion="keep host timing in the runner; simulation code compares "
        "and subtracts sim-time only",
        exempt_paths=("repro/runner/", "repro/analysis/"),
    ),
    # -- FRK: fork/pickle safety in the parallel runner -----------------------
    Rule(
        code="FRK001",
        name="fork-shared-module-state",
        summary="module-level mutable state mutated inside runner "
        "functions — each forked/spawned worker mutates its own copy, "
        "silently diverging from the parent",
        suggestion="keep per-run state on Job/engine objects that cross the "
        "pool explicitly, or derive it from the run token",
        exempt_paths=("repro/runner/artifacts.py",),
        only_paths=("repro/runner/",),
    ),
    Rule(
        code="FRK002",
        name="unpicklable-worker-callable",
        summary="a lambda or nested function is submitted to a process "
        "pool — it cannot be pickled into a spawned worker",
        suggestion="submit a module-level function (carry context in a "
        "picklable Job dataclass, as repro.runner.jobs does)",
    ),
    Rule(
        code="FRK003",
        name="raw-shared-memory",
        summary="SharedMemory segment created outside the run-scoped "
        "artifact helpers — it escapes the runner's prefix sweep and can "
        "leak on worker death",
        suggestion="move artifact bytes with repro.runner.artifacts "
        "(export_cell_artifacts / fetch_cell_artifacts), which name "
        "segments under a swept run token",
        exempt_paths=("repro/runner/artifacts.py",),
    ),
    Rule(
        code="FRK004",
        name="mirror-state-mutation",
        summary="direct mutation of mirror WorldNode state (move_to / "
        "set_mobility / .mobility / .owner_shard assignment) outside the "
        "boundary-exchange API — shards would silently diverge from the "
        "owner's view of the node",
        suggestion="route mirror changes through repro.sim.sharded.boundary "
        "(create_mirror / verify_mirror_position / reassign_mirror_owner), "
        "which mutate inside World.boundary_exchange()",
        exempt_paths=("repro/sim/sharded/boundary.py",),
        only_paths=("repro/sim/sharded/",),
    ),
    # -- SHD: sharded-engine invariants (whole-program pass) ------------------
    Rule(
        code="SHD001",
        name="mirror-mutation-call-path",
        summary="a call path from shard code reaches a mirror WorldNode "
        "mutation (move_to / set_mobility / .mobility / .owner_shard "
        "assignment) implemented outside the sharded package — the "
        "interprocedural generalisation of the syntactic FRK004",
        suggestion="route mirror changes through repro.sim.sharded.boundary "
        "(create_mirror / verify_mirror_position / reassign_mirror_owner); "
        "the finding prints the call chain down to the mutation site",
        exempt_paths=("repro/sim/sharded/boundary.py",),
        only_paths=("repro/sim/sharded/",),
    ),
    Rule(
        code="SHD002",
        name="horizon-unbounded-schedule",
        summary="an event is scheduled (kernel.call_at / call_in) with a "
        "time or delay not provably bounded by the horizon window — it can "
        "land past the max_displacement lookahead barrier, where neighbor "
        "shards have already advanced",
        suggestion="guard the fire time against the window end before "
        "scheduling (the shard.schedule_window idiom: "
        "`if t0 <= fire_at < t1: kernel.call_at(fire_at, ...)`)",
        # The engine module owns the window grid: the serial reference has
        # no horizon and the coordinator drives the barriers themselves.
        exempt_paths=("repro/sim/sharded/engine.py",),
        only_paths=("repro/sim/sharded/",),
    ),
    Rule(
        code="SHD003",
        name="unpicklable-shard-capture",
        summary="an object handed to a shard worker process is an instance "
        "of a class that is transitively unpicklable (a lambda, lock, open "
        "file, or another unpicklable instance lives in its attributes)",
        suggestion="ship only primitives and frozen spec dataclasses across "
        "the shard boundary and rebuild heavyweight state inside the "
        "worker, as ShardRuntime does from ScenarioSpec",
        only_paths=("repro/sim/sharded/",),
    ),
    Rule(
        code="SHD004",
        name="unordered-merge-feed",
        summary="iteration over a dict (keys/values/items) feeds an ordered "
        "accumulator in sharded code — per-shard insertion order differs, "
        "so the canonical record merge would see a shard-dependent stream",
        suggestion="iterate `sorted(mapping)` (or sort the accumulated "
        "records before they reach the merge), as the horizon protocol "
        "does everywhere",
        only_paths=("repro/sim/sharded/",),
    ),
    # -- VEC: numpy bit-parity on delivery-log-reaching paths -----------------
    Rule(
        code="VEC001",
        name="banned-ufunc-on-parity-path",
        summary="a numpy ufunc that is not correctly rounded (np.hypot / "
        "np.log10 / np.power / np.exp) or math.fsum is called on a "
        "parity-sensitive path — its floats can reach a delivery log, "
        "where the scalar reference would produce different bits",
        suggestion="stick to the admissible primitives (+ - * /, np.sqrt, "
        "stable argsort) or keep a scalar math-module loop, as "
        "repro.phy.propagation.LogDistance does; the finding prints the "
        "call chain from the delivery-log root down to the ufunc",
        # The analysis tooling may name the banned ufuncs in the strings
        # and fixtures it builds.
        exempt_paths=("repro/analysis/",),
    ),
    Rule(
        code="VEC004",
        name="bulk-rng-draw-on-delivery-path",
        summary="a bulk RNG draw (rng.random(n) / np.random.* / size=) or "
        "a draw inside unordered iteration happens on a parity-sensitive "
        "path — the RNG draw-order contract requires exactly one uniform "
        "per 0<p<1 candidate in ascending attach order",
        suggestion="draw scalars in candidate order (the "
        "`np.fromiter((rng.random() for _ in ...))` idiom in "
        "Medium._delivery_mask); never draw a vector or draw while "
        "iterating a set",
        exempt_paths=("repro/analysis/",),
    ),
    Rule(
        code="VEC005",
        name="order-sensitive-reduction-on-parity-path",
        summary="an order-sensitive numpy reduction (np.sum / np.dot / "
        "np.prod / np.matmul ... — pairwise summation) feeds "
        "parity-sensitive floats; the sequential scalar reference "
        "accumulates in a different association order, so the bits differ",
        suggestion="accumulate with a sequential loop / builtin sum(), or "
        "restructure so the reduction's result never reaches a delivery "
        "log",
        exempt_paths=("repro/analysis/",),
    ),
    # -- API: in-repo deprecated interfaces -----------------------------------
    Rule(
        code="API001",
        name="removed-average-ma",
        summary="EnergyMeter.average_ma(since_time, since_charge_mas) — the "
        "two-float window form was removed after its deprecation cycle "
        "(average_ma is keyword-only: since=snapshot, floor_ma=...)",
        suggestion="take snapshot = meter.snapshot() and call "
        "meter.average_ma(since=snapshot, floor_ma=...)",
        status="removed",
    ),
    Rule(
        code="API002",
        name="removed-cellresult-alias",
        summary="repro.experiments CellResult — the removed alias of "
        "Table4Cell (the name belongs to repro.runner.CellResult)",
        suggestion="import Table4Cell for the Table-4 measurement, or "
        "repro.runner.CellResult for the runner's cell envelope",
        status="removed",
    ),
]

#: code -> rule, in catalogue order.
RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}


def _ruleset_digest() -> str:
    payload = repr((ANALYSIS_VERSION, sorted(
        (r.code, r.name, r.summary, r.suggestion, r.exempt_paths,
         r.only_paths, r.status)
        for r in _RULE_LIST
    )))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: Cache key component: changes whenever the catalogue or ANALYSIS_VERSION
#: does, so `.repro-analysis-cache/` entries from an older ruleset miss.
RULESET_VERSION = f"{ANALYSIS_VERSION}:{_ruleset_digest()}"
