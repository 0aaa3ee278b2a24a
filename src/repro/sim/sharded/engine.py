"""Run a scenario serially or across shard worker processes.

The entry points are :func:`run_serial` (the reference: one kernel, one
world, every node) and :func:`run_sharded` (N :class:`ShardRuntime`\\ s
advancing in lockstep between integer horizons).  Sharded execution has
two transports with identical semantics:

- **inline** — all runtimes in this process, boundary messages still
  round-tripped through the struct codecs.  Used for correctness tests,
  on 1-core boxes, and automatically inside daemonic pool workers (which
  may not fork grandchildren).
- **processes** — one forked worker per shard, star topology: at every
  horizon each worker sends its boundary packet and staged delivery
  records to the coordinator (large blobs ride the PR 3 shared-memory
  artifact transport), which routes per-destination inboxes back.

Whatever the transport, records merge in canonical (time, sender,
receiver) order and digest identically to the serial reference — that
equality is asserted by the tier-1 suite and checkable from the CLI via
``--compare-serial``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import tripwire
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.sim.sharded.boundary import (
    Advert,
    BoundaryProtocolError,
    Record,
    pack_boundary,
    pack_records,
    unpack_boundary,
    unpack_records,
)
from repro.sim.sharded.shard import ShardRuntime, node_name
from repro.sim.sharded.spec import PAYLOAD_STRUCT, RECORD_STRUCT, ScenarioSpec, build_models
from repro.phy.world import World

#: How long the coordinator waits on any one worker at a horizon barrier
#: before declaring the run wedged.  Generous: a horizon of a 10k-node
#: shard is seconds, not minutes.
BARRIER_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class ShardResult:
    """Per-shard accounting, merged into the run's :class:`SimOutcome`."""

    shard_index: int
    owned_initial: int
    owned_final: int
    mirrors_final: int
    handoffs_in: int
    handoffs_out: int
    mirror_adds: int
    frames_sent: int
    frames_delivered: int
    frames_dropped: int
    frames_cross_shard: int
    record_count: int
    wall_s: float


@dataclass(frozen=True)
class SimOutcome:
    """The outcome of one scenario run, serial or sharded."""

    mode: str
    shards: int
    record_count: int
    digest: str
    frames_sent: int
    frames_delivered: int
    frames_dropped: int
    frames_cross_shard: int
    wall_s: float
    shard_results: Tuple[ShardResult, ...] = ()


def canonical_records(records: Sequence[Record]) -> List[Record]:
    """Sort records into the canonical merge order.

    Tuples sort by (time, sender, receiver, ...) — round and distance are
    functions of the first three for any valid log, so this is a total
    order over distinct deliveries.
    """
    return sorted(records)


def delivery_digest(records: Sequence[Record]) -> str:
    """SHA-256 over the struct-packed canonical record stream."""
    hasher = hashlib.sha256()
    pack = RECORD_STRUCT.pack
    for record in canonical_records(records):
        hasher.update(pack(*record))
    return hasher.hexdigest()[:16]


def _check_distinct(records: Sequence[Record]) -> None:
    if len(set(records)) != len(records):
        raise BoundaryProtocolError(
            "duplicate delivery records after merge — a delivery was "
            "observed in more than one shard"
        )


# -- serial reference --------------------------------------------------------


def run_serial(spec: ScenarioSpec) -> SimOutcome:
    """Run the scenario on a single kernel: the correctness reference."""
    started = time.perf_counter()
    models = build_models(spec)
    kernel = Kernel(seed=spec.seed)
    world = World(kernel)
    medium = Medium(kernel, world)
    records: List[Record] = []

    def on_scan(payload: bytes, distance: float, receiver: int) -> None:
        round_index, sender = PAYLOAD_STRUCT.unpack(payload)
        records.append((kernel.now, sender, receiver, round_index, distance))

    radios: List[BleRadio] = []
    for index, model in enumerate(models):
        node = world.add_node(node_name(index), mobility=model)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=index: on_scan(payload, distance, me)
        )
        radios.append(radio)
    for round_index, fire_at in enumerate(spec.round_times()):
        for index, radio in enumerate(radios):
            payload = PAYLOAD_STRUCT.pack(round_index, index)
            kernel.call_at(
                fire_at, lambda r=radio, p=payload: r.advertise_once(p)
            )
    kernel.run_until(spec.duration_s)
    _check_distinct(records)
    return SimOutcome(
        mode="serial",
        shards=1,
        record_count=len(records),
        digest=delivery_digest(records),
        frames_sent=medium.frames_sent,
        frames_delivered=medium.frames_delivered,
        frames_dropped=medium.frames_dropped,
        frames_cross_shard=medium.frames_cross_shard,
        wall_s=time.perf_counter() - started,
    )


# -- sharded: shared plumbing ------------------------------------------------


def _shard_result(runtime: ShardRuntime, record_count: int, wall_s: float) -> ShardResult:
    medium = runtime.medium
    return ShardResult(
        shard_index=runtime.shard_index,
        owned_initial=runtime.owned_initial,
        owned_final=runtime.owned_count,
        mirrors_final=runtime.mirror_count,
        handoffs_in=runtime.handoffs_in,
        handoffs_out=runtime.handoffs_out,
        mirror_adds=runtime.mirror_adds,
        frames_sent=medium.frames_sent,
        frames_delivered=medium.frames_delivered,
        frames_dropped=medium.frames_dropped,
        frames_cross_shard=medium.frames_cross_shard,
        record_count=record_count,
        wall_s=wall_s,
    )


def _merge_outcome(
    mode: str,
    shards: int,
    records: List[Record],
    shard_results: List[ShardResult],
    wall_s: float,
) -> SimOutcome:
    _check_distinct(records)
    total_delivered = sum(result.frames_delivered for result in shard_results)
    if len(records) != total_delivered:
        raise BoundaryProtocolError(
            f"{total_delivered} frames delivered but {len(records)} records "
            "merged — a delivery was lost at a horizon barrier"
        )
    return SimOutcome(
        mode=mode,
        shards=shards,
        record_count=len(records),
        digest=delivery_digest(records),
        frames_sent=sum(result.frames_sent for result in shard_results),
        frames_delivered=total_delivered,
        frames_dropped=sum(result.frames_dropped for result in shard_results),
        frames_cross_shard=sum(
            result.frames_cross_shard for result in shard_results
        ),
        wall_s=wall_s,
        shard_results=tuple(shard_results),
    )


def _route_inboxes(
    shards: int,
    outbound: List[Dict[int, bytes]],
) -> List[List[bytes]]:
    """Turn per-source outbound maps into per-destination ordered inboxes.

    Inboxes list blobs in source-shard order, so every shard applies the
    same merged inbound regardless of transport or arrival timing.
    """
    return [
        [outbound[src][dst] for src in range(shards) if dst in outbound[src]]
        for dst in range(shards)
    ]


def run_sharded(
    spec: ScenarioSpec,
    shards: int,
    processes: Optional[bool] = None,
    use_shared_memory: bool = True,
) -> SimOutcome:
    """Run the scenario across ``shards`` spatial partitions.

    ``processes=None`` picks worker processes when they can help (more
    than one shard) and are allowed (not inside a daemonic pool worker,
    which cannot fork children of its own); pass ``True``/``False`` to
    force.  The delivery digest is identical either way.
    """
    if shards <= 0:
        raise ValueError(f"shards must be > 0, got {shards}")
    if processes is None:
        processes = shards > 1 and not multiprocessing.current_process().daemon
    if processes:
        return _run_sharded_processes(spec, shards, use_shared_memory)
    return _run_sharded_inline(spec, shards)


# -- sharded: inline transport -----------------------------------------------


def _run_sharded_inline(spec: ScenarioSpec, shards: int) -> SimOutcome:
    started = time.perf_counter()
    runtimes = [ShardRuntime(spec, shards, index) for index in range(shards)]
    walls = [0.0] * shards
    records: List[Record] = []
    t0 = 0.0
    for t1 in spec.window_ends():
        outbound: List[Dict[int, bytes]] = []
        for runtime in runtimes:
            tick = time.perf_counter()
            adverts, handoffs = runtime.horizon_packet(t0, t1)
            records.extend(runtime.take_records())
            outbound.append(
                {
                    dst: pack_boundary(adverts.get(dst, []), handoffs.get(dst, []))
                    for dst in sorted(set(adverts) | set(handoffs))
                }
            )
            walls[runtime.shard_index] += time.perf_counter() - tick
        inboxes = _route_inboxes(shards, outbound)
        for runtime, inbox in zip(runtimes, inboxes):
            tick = time.perf_counter()
            adverts_in: List[Advert] = []
            handoffs_in: List[int] = []
            for blob in inbox:
                adverts, handoffs = unpack_boundary(blob)
                adverts_in.extend(adverts)
                handoffs_in.extend(handoffs)
            runtime.apply_inbound(t0, handoffs_in, adverts_in)
            runtime.schedule_window(t0, t1)
            runtime.run_window(t1)
            walls[runtime.shard_index] += time.perf_counter() - tick
        t0 = t1
    shard_results = []
    per_shard_counts = [0] * shards
    for runtime in runtimes:
        staged = runtime.take_records()
        records.extend(staged)
        per_shard_counts[runtime.shard_index] = len(staged)
    # Frame counters only settle after every shard's final window, so the
    # per-shard record counts above are the *tail* staging; the canonical
    # count lives in the merged outcome.
    for runtime in runtimes:
        shard_results.append(
            _shard_result(
                runtime,
                per_shard_counts[runtime.shard_index],
                walls[runtime.shard_index],
            )
        )
    return _merge_outcome(
        "sharded-inline",
        shards,
        records,
        shard_results,
        time.perf_counter() - started,
    )


# -- sharded: process transport ----------------------------------------------


def _transport() -> Any:
    """The PR 3 shared-memory artifact transport, imported on first use.

    Lazy because the runner package imports the experiment grids (which
    import this engine): binding ``repro.runner.artifacts`` at module
    import time would close that cycle.  Only process mode pays the hop.
    """
    from repro.runner import artifacts

    return artifacts


def _blob_artifact(
    key: str, blob: bytes, use_shared_memory: bool, segment: str
) -> Any:
    artifact = _transport().Artifact(key, data=blob)
    if use_shared_memory:
        artifact = artifact.to_shared(segment)
    return artifact


def _shard_worker(
    spec: ScenarioSpec,
    shards: int,
    shard_index: int,
    conn: Any,
    use_shared_memory: bool,
    token: str,
) -> None:
    """One shard's process body: horizon loop against the coordinator."""
    # Arm the global-RNG tripwire for this shard unless the process already
    # inherited one (fork under the runner carries the cell's tripwire);
    # a random.random() anywhere in the shard then fails the window loudly
    # with the shard id in the label instead of silently diverging.
    armed = None
    if tripwire.active() is None:
        armed = tripwire.install(f"shard {shard_index}")
    try:
        started = time.perf_counter()
        runtime = ShardRuntime(spec, shards, shard_index)
        t0 = 0.0
        for k, t1 in enumerate(spec.window_ends()):
            adverts, handoffs = runtime.horizon_packet(t0, t1)
            outbound = {
                dst: _blob_artifact(
                    f"boundary.w{k}.s{shard_index}.d{dst}",
                    pack_boundary(adverts.get(dst, []), handoffs.get(dst, [])),
                    use_shared_memory,
                    f"{token}w{k}s{shard_index}d{dst}",
                )
                for dst in sorted(set(adverts) | set(handoffs))
            }
            records_artifact = _blob_artifact(
                f"records.w{k}.s{shard_index}",
                pack_records(runtime.take_records()),
                use_shared_memory,
                f"{token}r{k}s{shard_index}",
            )
            conn.send(("sync", k, outbound, records_artifact))
            message = conn.recv()
            if message[0] != "go" or message[1] != k:
                raise BoundaryProtocolError(
                    f"shard {shard_index} expected ('go', {k}), got {message[:2]}"
                )
            adverts_in: List[Advert] = []
            handoffs_in: List[int] = []
            for artifact in message[2]:
                blob_adverts, blob_handoffs = unpack_boundary(artifact.bytes())
                adverts_in.extend(blob_adverts)
                handoffs_in.extend(blob_handoffs)
            runtime.apply_inbound(t0, handoffs_in, adverts_in)
            runtime.schedule_window(t0, t1)
            runtime.run_window(t1)
            t0 = t1
        tail = runtime.take_records()
        tail_artifact = _blob_artifact(
            f"records.tail.s{shard_index}",
            pack_records(tail),
            use_shared_memory,
            f"{token}tail{shard_index}",
        )
        result = _shard_result(runtime, len(tail), time.perf_counter() - started)
        if armed is not None:
            armed.verify()  # direct-reference RNG use drifts the snapshot
        conn.send(("done", result, tail_artifact))
    except BaseException as error:  # surfaced in the coordinator
        import traceback

        conn.send(("error", f"{type(error).__name__}: {error}", traceback.format_exc()))
    finally:
        if armed is not None:
            armed.uninstall()
        conn.close()


def _mp_context() -> Any:
    """Fork keeps worker start cheap; fall back where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _recv(conn: Any, worker: Any, shard_index: int) -> Tuple[Any, ...]:
    """The next message from shard ``shard_index``, or a prompt failure.

    Waits on the worker's process sentinel as well as its pipe: every
    worker inherits every pipe end, so a dead worker's pipe never reports
    EOF while its siblings live, and only the sentinel says it is gone.
    """
    ready = wait([conn, worker.sentinel], BARRIER_TIMEOUT_S)
    if not ready:
        raise TimeoutError(
            f"shard {shard_index} sent nothing for {BARRIER_TIMEOUT_S:.0f}s "
            "at a horizon barrier"
        )
    if conn not in ready and not conn.poll():
        raise RuntimeError(f"shard {shard_index} died mid-run")
    try:
        message = conn.recv()
    except EOFError as error:
        raise RuntimeError(f"shard {shard_index} died mid-run") from error
    if message[0] == "error":
        raise RuntimeError(
            f"shard {shard_index} failed: {message[1]}\n{message[2]}"
        )
    return message


def _run_sharded_processes(
    spec: ScenarioSpec, shards: int, use_shared_memory: bool
) -> SimOutcome:
    started = time.perf_counter()
    context = _mp_context()
    transport = _transport()
    token = transport.make_run_token()
    pipes = [context.Pipe(duplex=True) for _ in range(shards)]
    workers = [
        context.Process(
            target=_shard_worker,
            args=(spec, shards, index, child, use_shared_memory, token),
            name=f"shard-{index}",
        )
        for index, (_, child) in enumerate(pipes)
    ]
    records: List[Record] = []
    shard_results: List[ShardResult] = []
    try:
        for worker in workers:
            worker.start()
        for _, child in pipes:
            child.close()
        for k in range(len(spec.window_ends())):
            messages = []
            for index, (parent, _) in enumerate(pipes):
                tag, kk, outbound, records_artifact = _recv(
                    parent, workers[index], index
                )
                if tag != "sync" or kk != k:
                    raise BoundaryProtocolError(
                        f"shard {index} sent ({tag}, {kk}); expected ('sync', {k})"
                    )
                records.extend(unpack_records(records_artifact.bytes()))
                messages.append(outbound)
            inboxes = _route_inboxes(shards, messages)
            for (parent, _), inbox in zip(pipes, inboxes):
                parent.send(("go", k, inbox))
        for index, (parent, _) in enumerate(pipes):
            tag, result, tail_artifact = _recv(parent, workers[index], index)
            if tag != "done":
                raise BoundaryProtocolError(
                    f"shard {index} sent {tag!r}; expected 'done'"
                )
            records.extend(unpack_records(tail_artifact.bytes()))
            shard_results.append(result)
        for worker in workers:
            worker.join(timeout=BARRIER_TIMEOUT_S)
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        for parent, _ in pipes:
            parent.close()
        transport.sweep_segments(token)
    return _merge_outcome(
        "sharded-processes",
        shards,
        records,
        shard_results,
        time.perf_counter() - started,
    )
