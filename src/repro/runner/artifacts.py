"""Cell artifacts and the structured cell result.

What a worker sends back is one :class:`CellResult`: identity (experiment,
cell, seed), the driver's scalar result, and any large opt-in *artifacts*
the driver attached — per-tick trace streams, per-component energy
timelines, per-chunk dissemination logs.  Each artifact is its payload
encoded once into canonical JSON bytes, plus the digest of those bytes.
The whole result, artifact bytes included, travels back through the
process pool's pickle pipe like any other return value, so serial and
parallel runs of a cell hold byte-identical artifacts — which
``--compare-serial`` checks digest for digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "Artifact",
    "ArtifactError",
    "AttachedResult",
    "CellResult",
    "attach",
    "decode_payload",
    "encode_payload",
    "payload_digest",
]


class ArtifactError(RuntimeError):
    """An artifact payload could not be encoded."""


# -- canonical payload bytes -------------------------------------------------


def _canonical(value: Any) -> Any:
    """Normalize a payload for encoding (tuples become lists, keys stay str)."""
    if isinstance(value, tuple):
        return [_canonical(item) for item in value]
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ArtifactError(
                    f"artifact payload keys must be str, got {key!r}"
                )
            out[key] = _canonical(item)
        return out
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ArtifactError(
        f"artifact payloads must be JSON-representable; got {type(value).__name__}"
    )


def encode_payload(payload: Any) -> bytes:
    """Encode a payload object into canonical, digest-stable bytes.

    Canonical JSON (minimal separators, no key re-ordering — payload builders
    already emit deterministic structures) so that serial and parallel runs
    of the same cell produce byte-identical artifacts.
    """
    return json.dumps(
        _canonical(payload), separators=(",", ":"), ensure_ascii=False,
        allow_nan=True,
    ).encode("utf-8")


def decode_payload(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode_payload` (tuples come back as
    lists; payload-aware consumers like ``TraceRecorder.from_payload``
    accept both)."""
    return json.loads(data.decode("utf-8"))


def payload_digest(data: bytes) -> str:
    """The content digest stored on artifacts and in BENCH reports."""
    return hashlib.sha256(data).hexdigest()[:16]


# -- artifacts -----------------------------------------------------------------


class Artifact:
    """One named payload attached to a cell result: encoded bytes + digest.

    The bytes are encoded once, in the worker; :meth:`load` decodes them
    back into Python objects on demand.
    """

    def __init__(self, key: str, data: bytes) -> None:
        self.key = key
        self._data = data
        self._digest = payload_digest(data)

    @classmethod
    def from_payload(cls, key: str, payload: Any) -> "Artifact":
        """Encode ``payload`` canonically into an artifact."""
        return cls(key, encode_payload(payload))

    @property
    def digest(self) -> str:
        """Content digest; identical across run modes."""
        return self._digest

    @property
    def length(self) -> int:
        """Encoded payload size in bytes."""
        return len(self._data)

    def __repr__(self) -> str:
        return f"Artifact({self.key!r}, {self.length}B, digest={self.digest})"

    def bytes(self) -> bytes:
        """The encoded payload bytes."""
        return self._data

    def load(self) -> Any:
        """Decode the payload object (each call parses the bytes afresh)."""
        return decode_payload(self._data)


# -- the driver-facing attachment surface -------------------------------------


@dataclass
class AttachedResult:
    """A driver's scalar result plus named artifact payloads.

    Experiment drivers that opt in (``attach_trace=`` /
    ``attach_energy_timeline=``) return this instead of the bare result;
    :meth:`Job.run <repro.runner.jobs.Job.run>` splits it into a
    :class:`CellResult` with encoded artifacts.
    """

    value: Any
    payloads: Dict[str, Any] = field(default_factory=dict)


def attach(value: Any, **payloads: Any) -> AttachedResult:
    """Sugar for drivers: ``return attach(result, trace=recorder.to_payload())``."""
    return AttachedResult(value, dict(payloads))


# -- the structured cell result ----------------------------------------------


@dataclass
class CellResult:
    """Everything one finished experiment cell produced.

    The redesigned unit flowing through ``Job.run()`` → ``execute_jobs`` →
    ``RunReport``: identity (experiment, cell, seed), the driver's scalar
    ``value``, attached ``artifacts``, and the wall-clock the engine stamps
    on it.  ``result_digest`` fingerprints only ``value`` — byte-compatible
    with the pre-artifact BENCH reports.
    """

    experiment: str
    cell: str
    seed: Optional[int]
    value: Any
    artifacts: Dict[str, Artifact] = field(default_factory=dict)
    wall_s: float = 0.0

    @classmethod
    def from_raw(cls, experiment: str, cell: str, seed: Optional[int],
                 raw: Any) -> "CellResult":
        """Normalize a driver's return value (bare or :class:`AttachedResult`)."""
        if isinstance(raw, AttachedResult):
            return cls(
                experiment=experiment, cell=cell, seed=seed, value=raw.value,
                artifacts={
                    key: Artifact.from_payload(key, payload)
                    for key, payload in raw.payloads.items()
                },
            )
        return cls(experiment=experiment, cell=cell, seed=seed, value=raw)

    @property
    def result_digest(self) -> str:
        """A short stable fingerprint of the structured result.

        Driver results are dataclasses of floats/strings, whose ``repr`` is
        deterministic, so equal results hash equal across runs and modes.
        Artifacts carry their own digests and are deliberately excluded.
        """
        return hashlib.sha256(repr(self.value).encode("utf-8")).hexdigest()[:16]

    def artifact(self, key: str) -> Artifact:
        """The named artifact; raises ``KeyError`` with the known keys."""
        try:
            return self.artifacts[key]
        except KeyError:
            known = ", ".join(self.artifacts) or "none"
            raise KeyError(
                f"cell {self.cell!r} has no artifact {key!r} (attached: {known})"
            ) from None

    def digest_line(self) -> str:
        """One comparable line per cell: value digest + every artifact digest.

        What ``--compare-serial`` equates between parallel and serial runs.
        """
        parts = [f"{self.experiment}/{self.cell}@{self.seed}",
                 self.result_digest]
        parts.extend(
            f"{key}:{artifact.digest}"
            for key, artifact in self.artifacts.items()
        )
        return " ".join(parts)
