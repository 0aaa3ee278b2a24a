"""Per-file static lint + runtime RNG tripwire.

The simulator's core claim — that SP/SA/Omni energy and latency differences
emerge reproducibly from middleware behaviour — rests on bit-for-bit
determinism.  Runtime gates pin most of it: serial == parallel,
sharded == serial, production ``Medium`` == the scalar oracle, and
``MirrorNodeError``.  This package covers the rest, two ways:

- **statically**: ``python -m repro.analysis src/repro`` runs the per-file
  passes — scope/symbol tables (:mod:`repro.analysis.scopes`), type and
  dataflow inference (:mod:`repro.analysis.dataflow`), and the rule pass
  (:mod:`repro.analysis.visitor`) — for the hazards every digest gate
  would miss (:mod:`repro.analysis.rules` says why for each rule), and
  exits nonzero on any finding;
- **at runtime**: :mod:`repro.analysis.tripwire` monkeypatches the
  module-level ``random`` (and ``numpy.random``) entry points to raise, so a
  driver that touches global RNG state fails its cell loudly instead of
  silently degrading cross-process determinism.  The runner engine installs
  it around every cell and each shard worker around its shard.

The package itself imports nothing, so the runner and shard workers load
only the tripwire.  Import from the submodules.  See EXPERIMENTS.md
("Determinism invariants") for the rule catalogue.
"""
