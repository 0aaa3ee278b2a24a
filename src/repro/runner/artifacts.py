"""Shared-memory artifact transport and the structured cell result.

The runner splits what a worker sends back into two planes:

- the **result plane** — a small, structured :class:`CellResult` (experiment,
  cell, seed, the driver's scalar result) that always travels through the
  process pool's pickle queue, and
- the **data plane** — large opt-in *artifacts* (per-tick trace streams,
  per-component energy timelines, per-chunk dissemination logs) that travel
  through named ``multiprocessing.shared_memory`` segments.  Only a
  handle-sized :class:`ArtifactHandle` (segment name, length, content digest)
  crosses the queue, so the bytes on the queue are bounded and independent of
  how much a cell traced.

Where shared memory is unavailable (serial mode, a platform without it, or
``use_shared_memory=False``) the same :class:`Artifact` objects carry their
bytes inline through the queue instead — behaviour, digests, and the decoded
payloads are identical either way; only the transport differs.

Lifecycle of a shared segment:

1. the worker encodes each payload canonically, writes it into a fresh
   segment named under a run-scoped prefix, and enqueues the handle;
2. the parent maps the segment when the result arrives, verifies length and
   digest, copies the bytes out, and unlinks the segment immediately
   (decoding back into Python objects stays lazy — see :meth:`Artifact.load`);
3. after the run the parent sweeps any segment still carrying the run's
   prefix (a worker that died mid-cell cannot leak segments).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "Artifact",
    "ArtifactError",
    "ArtifactHandle",
    "AttachedResult",
    "CellResult",
    "attach",
    "decode_payload",
    "encode_payload",
    "export_cell_artifacts",
    "fetch_cell_artifacts",
    "make_run_token",
    "payload_digest",
    "shared_memory_available",
    "sweep_segments",
]

#: Every segment name the runner creates starts with this, followed by the
#: parent pid — the hygiene sweep can therefore target exactly one run (or,
#: in tests, every run of this process) without touching foreign segments.
SEGMENT_PREFIX = "ra"

#: Directory where POSIX shared memory appears as files; the leak sweep scans
#: it when present (Linux).  Absent (macOS, Windows) the sweep degrades to
#: unlinking only the handles the parent actually received.
_SHM_DIR = "/dev/shm"

_TOKEN_COUNTER = [0]


class ArtifactError(RuntimeError):
    """An artifact could not be encoded, mapped, or verified."""


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
    """The content digest stored in handles and BENCH reports."""
    return hashlib.sha256(data).hexdigest()[:16]


# -- availability & naming ----------------------------------------------------


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can actually allocate."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always importable on CPython 3.8+
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
    except (OSError, ValueError):  # pragma: no cover - no shm on this host
        return False
    probe.close()
    try:
        probe.unlink()
    except OSError:  # pragma: no cover - raced by a concurrent cleaner
        pass
    return True


def make_run_token() -> str:
    """A short, run-scoped segment-name prefix: ``ra<pid hex>r<seq hex>``.

    Unique across concurrent runners (pid) and across runs inside one
    process (counter); short enough that a full segment name stays inside
    the tightest POSIX ``shm_open`` name limits (~30 chars).
    """
    _TOKEN_COUNTER[0] += 1
    return f"{SEGMENT_PREFIX}{os.getpid():x}r{_TOKEN_COUNTER[0]:x}"


def _tracker_unregister(name: str) -> None:
    """Drop a worker-created segment from the resource tracker.

    The worker creates the segment but the *parent* owns its lifetime; left
    registered, a worker-side tracker would unlink it at pool shutdown
    before the parent reads it (CPython gh-82300).  Best-effort: on
    platforms without the tracker the sweep still guarantees hygiene.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


# -- handles and artifacts ----------------------------------------------------


@dataclass(frozen=True)
class ArtifactHandle:
    """What crosses the pool queue for one shared artifact: name + proof."""

    segment: str
    length: int
    digest: str


class Artifact:
    """One named payload attached to a cell result.

    Three states, transparent to consumers:

    - *inline*: the encoded bytes ride along (serial runs, fallback);
    - *shared*: only an :class:`ArtifactHandle` is held; :meth:`fetch` maps
      the segment, verifies it, copies the bytes, and unlinks;
    - *fetched*: bytes are local again; :meth:`load` decodes lazily.
    """

    def __init__(self, key: str, data: Optional[bytes] = None,
                 handle: Optional[ArtifactHandle] = None,
                 digest: Optional[str] = None) -> None:
        if (data is None) == (handle is None):
            raise ArtifactError("an Artifact holds either bytes or a handle")
        self.key = key
        self._data = data
        self.handle = handle
        self._digest = digest if digest is not None else (
            payload_digest(data) if data is not None else handle.digest
        )

    @classmethod
    def from_payload(cls, key: str, payload: Any) -> "Artifact":
        """Encode ``payload`` canonically into an inline artifact."""
        return cls(key, data=encode_payload(payload))

    # -- introspection ------------------------------------------------------

    @property
    def digest(self) -> str:
        """Content digest; identical across transports and run modes."""
        return self._digest

    @property
    def length(self) -> int:
        """Encoded payload size in bytes."""
        if self._data is not None:
            return len(self._data)
        return self.handle.length

    @property
    def is_shared(self) -> bool:
        """True while the bytes live in an un-fetched shared segment."""
        return self._data is None

    @property
    def transport(self) -> str:
        """``"shm"`` when the bytes crossed via shared memory, else
        ``"inline"`` (stable even after :meth:`fetch`)."""
        return "shm" if self.handle is not None else "inline"

    def __repr__(self) -> str:
        return (
            f"Artifact({self.key!r}, {self.length}B, {self.transport}, "
            f"digest={self.digest})"
        )

    # -- worker side --------------------------------------------------------

    def to_shared(self, segment_name: str) -> "Artifact":
        """Move the inline bytes into a named segment; return the handle form.

        Called in the worker.  On any allocation failure the inline artifact
        is returned unchanged — the queue carries the bytes instead, which
        is slower but identical in behaviour.
        """
        if self._data is None:
            return self
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(
                name=segment_name, create=True, size=max(1, len(self._data))
            )
        except (ImportError, OSError, ValueError):
            return self
        try:
            segment.buf[: len(self._data)] = self._data
        finally:
            segment.close()
        _tracker_unregister(segment_name)
        handle = ArtifactHandle(
            segment=segment_name, length=len(self._data), digest=self._digest
        )
        return Artifact(self.key, handle=handle)

    # -- parent side --------------------------------------------------------

    def fetch(self) -> "Artifact":
        """Materialize shared bytes locally and unlink the segment.

        Verifies the advertised length and content digest before accepting
        the bytes; a mismatch (torn write, foreign segment) raises
        :class:`ArtifactError` *after* unlinking, so nothing leaks.
        Idempotent for inline/fetched artifacts.
        """
        if self._data is not None:
            return self
        from multiprocessing import shared_memory

        name, want = self.handle.segment, self.handle.length
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (OSError, ValueError) as error:
            raise ArtifactError(
                f"artifact {self.key!r}: segment {name!r} is gone ({error})"
            ) from error
        try:
            if segment.size < want:
                raise ArtifactError(
                    f"artifact {self.key!r}: segment {name!r} holds "
                    f"{segment.size}B, handle claims {want}B"
                )
            data = bytes(segment.buf[:want])
        finally:
            segment.close()
            try:
                segment.unlink()
            except OSError:  # pragma: no cover - raced by the sweep
                pass
        seen = payload_digest(data)
        if seen != self.handle.digest:
            raise ArtifactError(
                f"artifact {self.key!r}: digest mismatch in segment {name!r} "
                f"(handle {self.handle.digest}, bytes {seen})"
            )
        self._data = data
        return self

    def bytes(self) -> bytes:
        """The encoded payload bytes (fetching from shared memory if needed)."""
        self.fetch()
        return self._data

    def load(self) -> Any:
        """Decode the payload object (lazy — first call parses the bytes)."""
        return decode_payload(self.bytes())


# -- the driver-facing attachment surface -------------------------------------


@dataclass
class AttachedResult:
    """A driver's scalar result plus named artifact payloads.

    Experiment drivers that opt in (``attach_trace=`` /
    ``attach_energy_timeline=``) return this instead of the bare result;
    :meth:`Job.run <repro.runner.jobs.Job.run>` splits it into a
    :class:`CellResult` with encoded artifacts.  Drivers never see handles
    or segments.
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


# -- engine-side transport helpers --------------------------------------------


def export_cell_artifacts(cell: CellResult, scope: str) -> CellResult:
    """Worker side: move every inline artifact into scoped shared segments.

    ``scope`` is ``<run token>j<job index hex>``; artifact *n* of the cell
    lands in segment ``<scope>a<n hex>``.  Artifacts that fail to allocate
    stay inline (per-artifact fallback).
    """
    if not cell.artifacts:
        return cell
    shared = {}
    for position, (key, artifact) in enumerate(cell.artifacts.items()):
        shared[key] = artifact.to_shared(f"{scope}a{position:x}")
    cell.artifacts = shared
    return cell


def fetch_cell_artifacts(cell: CellResult) -> CellResult:
    """Parent side: verify + copy out + unlink every shared artifact."""
    for artifact in cell.artifacts.values():
        artifact.fetch()
    return cell


def sweep_segments(token: str) -> List[str]:
    """Unlink every segment whose name starts with ``token``; return names.

    The parent runs this after every pool run (normally a no-op — fetching
    already unlinked everything) so a worker that died mid-cell cannot leak
    segments.  Scans :data:`_SHM_DIR` where the platform exposes one.
    """
    if not token.startswith(SEGMENT_PREFIX):
        raise ValueError(f"refusing to sweep non-runner prefix {token!r}")
    try:
        names = sorted(os.listdir(_SHM_DIR))
    except OSError:
        return []
    swept = []
    for name in names:
        if not name.startswith(token):
            continue
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
        except (ImportError, OSError, ValueError):  # pragma: no cover - raced
            continue
        swept.append(name)
    return swept
