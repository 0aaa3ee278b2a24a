"""Cell artifacts and the CellResult envelope.

Covers the contract from both ends: canonical encoding and digests on the
worker side, and on the parent side identical value and artifact digests
whether a grid ran serially or across the pool — plus a prompt failure,
not a hang, when a worker dies mid-cell.
"""

import os

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.runner.artifacts import (
    Artifact,
    ArtifactError,
    AttachedResult,
    CellResult,
    attach,
    decode_payload,
    encode_payload,
    payload_digest,
)
from repro.runner.engine import execute_jobs, run_experiment
from repro.runner.jobs import Job
from repro.trace.recorder import TraceRecorder


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


# -- the Artifact --------------------------------------------------------------


def test_artifact_loads_its_encoded_payload():
    artifact = Artifact.from_payload("trace", {"n": 7})
    assert artifact.load() == {"n": 7}
    assert artifact.bytes() == encode_payload({"n": 7})
    assert artifact.length == len(encode_payload({"n": 7}))
    assert artifact.digest == payload_digest(encode_payload({"n": 7}))


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


# -- engine integration: parallel == serial ------------------------------------


def test_serial_run_keeps_artifacts_inline():
    report = run_experiment("fig7", serial=True, attach_trace=True,
                            attach_energy_timeline=True)
    assert len(report.outcomes) == 3
    for outcome in report.outcomes:
        assert set(outcome.artifacts) == {"trace", "energy_timeline"}
        trace = TraceRecorder.from_payload(outcome.artifact("trace").load())
        assert trace.count("bundle_created") == 1
        assert trace.count("tick") > 0
    payload = report.to_bench_dict()
    for cell in payload["cells"]:
        assert cell["artifacts"]["trace"]["bytes"] > 0


def test_parallel_artifacts_digest_match_serial():
    report = run_experiment("fig7", workers=2, compare_serial=True,
                            attach_trace=True, attach_energy_timeline=True)
    assert report.digest_match is True
    assert report.digest_mismatches == []
    for outcome in report.outcomes:
        timeline = outcome.artifact("energy_timeline").load()
        assert timeline["events"], "relay timeline should have transitions"


# -- a worker that dies mid-cell fails the run ---------------------------------


def _die(seed: int):
    """A driver that kills its worker without returning a result."""
    os._exit(1)


def test_dead_worker_fails_the_run():
    doomed = Job(experiment="selftest", cell="die", fn=_die, args=(0,))
    with pytest.raises(BrokenProcessPool):
        execute_jobs([doomed], workers=1)
