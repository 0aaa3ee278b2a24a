"""The shared-memory artifact transport and the CellResult envelope.

Covers the redesign's contract from both ends: the worker side (canonical
encoding, export into named segments, per-artifact inline fallback) and the
parent side (verified fetch, deterministic unlink, run-scoped hygiene sweep
after a dead worker).  The transport must never change results: serial,
parallel-inline, and parallel-shm runs of the same grid produce identical
value and artifact digests.
"""

import os
import pickle

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.runner import artifacts as artifacts_module
from repro.runner.artifacts import (
    Artifact,
    ArtifactError,
    ArtifactHandle,
    AttachedResult,
    CellResult,
    attach,
    decode_payload,
    encode_payload,
    export_cell_artifacts,
    make_run_token,
    payload_digest,
    shared_memory_available,
    sweep_segments,
)
from repro.runner.engine import execute_jobs, run_experiment
from repro.runner.jobs import Job, jobs_for
from repro.trace.recorder import TraceRecorder

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)


# -- canonical payload encoding ------------------------------------------------


def test_encode_decode_round_trip_tuples_become_lists():
    payload = {"events": [(0.5, "a", "tick", {"n": 1})], "dropped": 0}
    data = encode_payload(payload)
    assert decode_payload(data) == {
        "events": [[0.5, "a", "tick", {"n": 1}]], "dropped": 0
    }


def test_encoding_is_digest_stable():
    payload = {"events": [(1.0, "s", "k", {})]}
    assert encode_payload(payload) == encode_payload(payload)
    assert payload_digest(encode_payload(payload)) == payload_digest(
        encode_payload({"events": [[1.0, "s", "k", {}]]})
    )


def test_non_string_keys_rejected():
    with pytest.raises(ArtifactError, match="keys must be str"):
        encode_payload({1: "x"})


def test_non_json_values_rejected():
    with pytest.raises(ArtifactError, match="JSON-representable"):
        encode_payload({"x": object()})


# -- the Artifact state machine ------------------------------------------------


def test_inline_artifact_loads_without_shared_memory():
    artifact = Artifact.from_payload("trace", {"n": 7})
    assert not artifact.is_shared
    assert artifact.transport == "inline"
    assert artifact.load() == {"n": 7}
    assert artifact.length == len(encode_payload({"n": 7}))


def test_artifact_needs_exactly_one_of_data_or_handle():
    with pytest.raises(ArtifactError):
        Artifact("x")
    with pytest.raises(ArtifactError):
        Artifact("x", data=b"{}", handle=ArtifactHandle("raz", 2, "00"))


@needs_shm
def test_shared_round_trip_unlinks_the_segment():
    name = f"ratrt{os.getpid():x}"
    artifact = Artifact.from_payload("trace", {"big": list(range(64))})
    shared = artifact.to_shared(name)
    assert shared.is_shared and shared.transport == "shm"
    assert shared.handle.segment == name
    assert shared.digest == artifact.digest
    fetched = shared.fetch()
    assert fetched.load() == {"big": list(range(64))}
    assert not shared.is_shared
    assert shared.transport == "shm"  # provenance survives the fetch
    # Deterministic unlink: the segment is gone the moment it was read.
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


@needs_shm
def test_fetch_rejects_corrupted_segment():
    name = f"racor{os.getpid():x}"
    shared = Artifact.from_payload("trace", {"n": 123456}).to_shared(name)
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    segment.buf[0] ^= 0xFF
    segment.close()
    with pytest.raises(ArtifactError, match="digest mismatch"):
        shared.fetch()
    # Even a rejected segment is unlinked — verification failures can't leak.
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


@needs_shm
def test_fetch_reports_vanished_segment():
    gone = Artifact(
        "trace", handle=ArtifactHandle(f"rax{os.getpid():x}", 4, "beef")
    )
    with pytest.raises(ArtifactError, match="is gone"):
        gone.fetch()


def test_sweep_refuses_foreign_prefixes():
    with pytest.raises(ValueError):
        sweep_segments("psm_12345")


# -- the CellResult envelope ---------------------------------------------------


def test_from_raw_wraps_bare_values():
    cell = CellResult.from_raw("fig7", "Omni", 21, {"latency": 5.0})
    assert cell.value == {"latency": 5.0}
    assert cell.artifacts == {}


def test_from_raw_encodes_attached_payloads():
    raw = attach({"latency": 5.0}, trace={"events": []})
    assert isinstance(raw, AttachedResult)
    cell = CellResult.from_raw("fig7", "Omni", 21, raw)
    assert cell.value == {"latency": 5.0}
    assert cell.artifact("trace").load() == {"events": []}
    with pytest.raises(KeyError, match="attached: trace"):
        cell.artifact("energy_timeline")


def test_digest_line_covers_value_and_artifacts():
    bare = CellResult.from_raw("fig7", "Omni", 21, {"latency": 5.0})
    attached = CellResult.from_raw(
        "fig7", "Omni", 21, attach({"latency": 5.0}, trace={"events": []})
    )
    assert bare.result_digest == attached.result_digest  # value-only digest
    assert bare.digest_line() != attached.digest_line()
    assert attached.digest_line().startswith("fig7/Omni@21 ")
    assert "trace:" in attached.digest_line()


# -- engine integration: parity across transports ------------------------------


def test_serial_run_keeps_artifacts_inline():
    report = run_experiment("fig7", serial=True, attach_trace=True,
                            attach_energy_timeline=True)
    assert len(report.outcomes) == 3
    for outcome in report.outcomes:
        assert set(outcome.artifacts) == {"trace", "energy_timeline"}
        assert outcome.artifact("trace").transport == "inline"
        trace = TraceRecorder.from_payload(outcome.artifact("trace").load())
        assert trace.count("bundle_created") == 1
        assert trace.count("tick") > 0
    payload = report.to_bench_dict()
    for cell in payload["cells"]:
        assert cell["artifacts"]["trace"]["transport"] == "inline"
        assert cell["artifacts"]["trace"]["bytes"] > 0


def test_parallel_artifacts_digest_match_serial():
    report = run_experiment("fig7", workers=2, compare_serial=True,
                            attach_trace=True, attach_energy_timeline=True)
    assert report.digest_match is True
    assert report.digest_mismatches == []
    expected = "shm" if shared_memory_available() else "inline"
    for outcome in report.outcomes:
        assert outcome.artifact("trace").transport == expected
        # Fetched on arrival: the parent holds real bytes, not handles.
        assert not outcome.artifact("trace").is_shared
        timeline = outcome.artifact("energy_timeline").load()
        assert timeline["events"], "relay timeline should have transitions"


def test_inline_fallback_is_bit_identical_to_shared_memory():
    jobs = jobs_for("fig7", attach_trace=True)
    with_shm, _, _ = execute_jobs(jobs, workers=2, use_shared_memory=True)
    without, _, _ = execute_jobs(jobs, workers=2, use_shared_memory=False)
    for shm_cell, inline_cell in zip(with_shm, without):
        assert shm_cell.digest_line() == inline_cell.digest_line()
        assert inline_cell.artifact("trace").transport == "inline"
        assert (shm_cell.artifact("trace").bytes()
                == inline_cell.artifact("trace").bytes())


# -- hygiene: a worker that dies mid-cell must not leak segments ---------------


def _leak_and_die(segment_name: str):
    """A driver that crashes its worker after allocating a run segment."""
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=segment_name, create=True, size=64)
    segment.buf[:5] = b"leak!"
    segment.close()
    artifacts_module._tracker_unregister(segment_name)
    os._exit(1)


@needs_shm
@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="hygiene sweep needs a scannable /dev/shm")
def test_dead_worker_leaves_no_segments(monkeypatch):
    token = f"radie{os.getpid():x}"
    monkeypatch.setattr(artifacts_module, "make_run_token", lambda: token)
    doomed = Job(experiment="selftest", cell="die", fn=_leak_and_die,
                 args=(f"{token}j0a0",))
    with pytest.raises((BrokenProcessPool, OSError)):
        execute_jobs([doomed], workers=1)
    # The engine's finally-sweep ran despite the broken pool: nothing with
    # this run's prefix survives in /dev/shm.
    leftovers = [name for name in os.listdir("/dev/shm")
                 if name.startswith(token)]
    assert leftovers == []


# -- the acceptance bar: queue bytes bounded, independent of trace length ------


def _synthetic_trace(ticks: int) -> dict:
    return {
        "format": "synthetic/v1",
        "events": [[index * 0.1, "src", "tick", {"n": index}]
                   for index in range(ticks)],
        "dropped": 0,
    }


def _queue_bytes(ticks: int, scope: str) -> int:
    """Bytes that would cross the pool queue for one exported cell."""
    cell = CellResult.from_raw("selftest", f"t{ticks}", 0,
                               attach({"ticks": ticks},
                                      trace=_synthetic_trace(ticks)))
    exported = export_cell_artifacts(cell, scope)
    return len(pickle.dumps(exported))


@needs_shm
def test_queue_bytes_bounded_by_handle_size():
    token = make_run_token()
    try:
        small = _queue_bytes(10, f"{token}j0")
        large = _queue_bytes(10_000, f"{token}j1")
    finally:
        sweep_segments(token)
    # A 1000× longer trace may only move the queue payload by the few bytes
    # of a bigger length integer — the handle, not the data, crosses.
    assert abs(large - small) < 64, (
        f"queue bytes grew with trace length: {small}B -> {large}B"
    )
    # Reference point: the same cells kept inline DO scale with the trace.
    inline_small = len(pickle.dumps(CellResult.from_raw(
        "selftest", "s", 0, attach({}, trace=_synthetic_trace(10)))))
    inline_large = len(pickle.dumps(CellResult.from_raw(
        "selftest", "l", 0, attach({}, trace=_synthetic_trace(10_000)))))
    assert inline_large > 100 * inline_small
