"""PRoPHET: probabilistic routing for intermittently connected networks.

Implements Lindgren et al. (2003), the second real application of the
paper's evaluation (Fig 7): "information is buffered by intermediate devices
and then forwarded when communication links are available.  PRoPHET selects
devices as carriers based on a local assessment of their potential to
encounter the final destination.  To assess these conditions, devices
continuously share summaries of their historical encounters."

Mechanics implemented:

- delivery predictability ``P(a,b)`` updated on encounter
  (``P += (1-P) * P_INIT``), aged over time (``P *= GAMMA^elapsed``), and
  propagated transitively (``P(a,c) = max(P(a,c), P(a,b)·P(b,c)·BETA)``);
- compact summary vectors (top-K predictability entries + buffered bundle
  ids) shared continuously as transport metadata — small enough for a BLE
  context under Omni;
- store-carry-forward: a bundle is handed to an encountered node whose
  predictability for the destination exceeds our own, and delivered
  directly when the destination itself is met.

The router is transport-neutral, so the same code runs over the State of
the Practice, the State of the Art, and Omni.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.apps.transport import D2DTransport
from repro.net.payload import Payload, VirtualPayload, payload_size
from repro.sim.kernel import Kernel

P_INIT = 0.75
GAMMA = 0.98  # aging factor per second
BETA = 0.25  # transitivity damping
SUMMARY_TOP_K = 1  # predictability entries per summary (BLE budget)
ENCOUNTER_REFRACTORY_S = 5.0  # one encounter credit per meeting


@dataclass
class Bundle:
    """One store-carry-forward message."""

    bundle_id: int
    destination_id: int
    payload: Payload
    created_at: float
    source_id: int

    @property
    def size(self) -> int:
        return payload_size(self.payload)


# -- summary vector codec ------------------------------------------------

_SUMMARY_HEAD = struct.Struct("!BB")
_SUMMARY_ENTRY = struct.Struct("!QB")
SUMMARY_VERSION = 2


def encode_summary(predictabilities: List[Tuple[int, float]],
                   bundle_ids: List[int]) -> bytes:
    """Pack (dest, P) entries and carried bundle ids into a summary vector."""
    if len(predictabilities) > 255 or len(bundle_ids) > 255:
        raise ValueError("summary vector overflow")
    out = [_SUMMARY_HEAD.pack(SUMMARY_VERSION, len(predictabilities))]
    for dest, probability in predictabilities:
        out.append(_SUMMARY_ENTRY.pack(dest, min(255, round(probability * 255))))
    out.append(bytes([len(bundle_ids)]))
    for bundle_id in bundle_ids:
        out.append(struct.pack("!H", bundle_id))
    return b"".join(out)


def decode_summary(raw: bytes) -> Optional[Tuple[Dict[int, float], Set[int]]]:
    """Parse a summary vector → (predictabilities, bundle ids); None if alien."""
    if len(raw) < _SUMMARY_HEAD.size:
        return None
    version, count = _SUMMARY_HEAD.unpack_from(raw)
    if version != SUMMARY_VERSION:
        return None
    offset = _SUMMARY_HEAD.size
    predictabilities: Dict[int, float] = {}
    for _ in range(count):
        if offset + _SUMMARY_ENTRY.size > len(raw):
            return None
        dest, quantized = _SUMMARY_ENTRY.unpack_from(raw, offset)
        predictabilities[dest] = quantized / 255.0
        offset += _SUMMARY_ENTRY.size
    if offset >= len(raw) + 1:
        return None
    bundle_count = raw[offset]
    offset += 1
    bundle_ids: Set[int] = set()
    for _ in range(bundle_count):
        if offset + 2 > len(raw):
            return None
        bundle_ids.add(struct.unpack_from("!H", raw, offset)[0])
        offset += 2
    return predictabilities, bundle_ids


class ProphetNode:
    """One PRoPHET router instance on top of a transport."""

    def __init__(self, kernel: Kernel, transport: D2DTransport) -> None:
        self.kernel = kernel
        self.transport = transport
        self._predictability: Dict[int, float] = {}
        self._updated_at: Dict[int, float] = {}
        self._last_encounter: Dict[int, float] = {}
        self._peer_summaries: Dict[int, Tuple[Dict[int, float], Set[int]]] = {}
        self.buffer: Dict[int, Bundle] = {}
        self.delivered: List[Bundle] = []
        self._forwarded: Set[Tuple[int, int]] = set()  # (peer, bundle) pairs
        self._on_delivered: List[Callable[[Bundle], None]] = []
        self._next_bundle_id = 1
        self.started = False

    @property
    def local_id(self) -> int:
        """This router's identity (the transport's)."""
        return self.transport.local_id

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin advertising summaries and routing."""
        if self.started:
            return
        self.started = True
        self.transport.on_metadata(self._on_summary)
        self.transport.on_receive(self._on_bundle)
        self.transport.start()
        self._advertise()

    def on_delivered(self, callback: Callable[[Bundle], None]) -> None:
        """Register for bundles delivered to this node."""
        self._on_delivered.append(callback)

    # -- predictability table ---------------------------------------------------

    def predictability_for(self, dest_id: int) -> float:
        """Current (aged) delivery predictability toward ``dest_id``."""
        probability = self._predictability.get(dest_id, 0.0)
        if probability == 0.0:
            return 0.0
        elapsed = self.kernel.now - self._updated_at.get(dest_id, self.kernel.now)
        if elapsed > 0:
            probability *= GAMMA ** elapsed
        return probability

    def _set_predictability(self, dest_id: int, probability: float) -> None:
        self._predictability[dest_id] = min(1.0, max(0.0, probability))
        self._updated_at[dest_id] = self.kernel.now

    def seed_predictability(self, dest_id: int, probability: float) -> None:
        """Install prior encounter history (scenario setup)."""
        self._set_predictability(dest_id, probability)
        self._advertise()

    def _credit_encounter(self, peer_id: int) -> None:
        last = self._last_encounter.get(peer_id)
        now = self.kernel.now
        if last is not None and now - last < ENCOUNTER_REFRACTORY_S:
            self._last_encounter[peer_id] = now
            return
        self._last_encounter[peer_id] = now
        current = self.predictability_for(peer_id)
        self._set_predictability(
            peer_id, current + (1.0 - current) * P_INIT
        )
        self._advertise()

    def _apply_transitivity(self, peer_id: int,
                            peer_predictability: Dict[int, float]) -> None:
        p_ab = self.predictability_for(peer_id)
        if p_ab <= 0.0:
            return
        changed = False
        for dest_id, p_bc in peer_predictability.items():
            if dest_id == self.local_id:
                continue
            candidate = p_ab * p_bc * BETA
            if candidate > self.predictability_for(dest_id):
                self._set_predictability(dest_id, candidate)
                changed = True
        if changed:
            self._advertise()

    # -- bundles ------------------------------------------------------------

    def send_bundle(self, dest_id: int, payload: Payload) -> Bundle:
        """Originate a bundle toward ``dest_id``; returns the buffered bundle."""
        bundle = Bundle(
            bundle_id=self._next_bundle_id,
            destination_id=dest_id,
            payload=payload,
            created_at=self.kernel.now,
            source_id=self.local_id,
        )
        self._next_bundle_id = (self._next_bundle_id + 1) % (1 << 16) or 1
        self.buffer[bundle.bundle_id] = bundle
        self._advertise()
        self._route_all()
        return bundle

    def _route_all(self) -> None:
        for peer_id in self.transport.peers():
            self._route_to(peer_id)

    def _route_to(self, peer_id: int) -> None:
        summary = self._peer_summaries.get(peer_id, ({}, set()))
        peer_predictability, peer_bundles = summary
        for bundle in sorted(self.buffer.values(), key=lambda b: b.bundle_id):
            if bundle.bundle_id in peer_bundles:
                continue
            key = (peer_id, bundle.bundle_id)
            if key in self._forwarded:
                continue
            is_destination = peer_id == bundle.destination_id
            if not is_destination:
                ours = self.predictability_for(bundle.destination_id)
                theirs = peer_predictability.get(bundle.destination_id, 0.0)
                if theirs <= ours:
                    continue
            self._forwarded.add(key)
            envelope = VirtualPayload(
                size=bundle.size,
                tag=f"bundle-{bundle.source_id & 0xffff}-{bundle.bundle_id}",
                meta=(("bundle", bundle.bundle_id, bundle.destination_id,
                       bundle.created_at, bundle.source_id),),
            )
            self.transport.send(
                peer_id, envelope, self._make_forward_result(peer_id, bundle.bundle_id)
            )

    def _make_forward_result(self, peer_id: int, bundle_id: int):
        def on_result(ok: bool, detail: str) -> None:
            if not ok:
                self._forwarded.discard((peer_id, bundle_id))

        return on_result

    # -- reception ------------------------------------------------------------

    def _on_summary(self, peer_id: int, raw: bytes) -> None:
        summary = decode_summary(raw)
        if summary is None:
            return
        self._peer_summaries[peer_id] = summary
        self._credit_encounter(peer_id)
        self._apply_transitivity(peer_id, summary[0])
        self._route_to(peer_id)

    def _on_bundle(self, peer_id: int, payload: Payload) -> None:
        descriptor = self._bundle_descriptor(payload)
        if descriptor is None:
            return
        bundle_id, dest_id, created_at, source_id = descriptor
        bundle = Bundle(
            bundle_id=bundle_id,
            destination_id=dest_id,
            payload=payload,
            created_at=created_at,
            source_id=source_id,
        )
        if dest_id == self.local_id:
            self.delivered.append(bundle)
            for callback in list(self._on_delivered):
                callback(bundle)
            return
        if bundle_id not in self.buffer:
            self.buffer[bundle_id] = bundle
            self._advertise()
            self._route_all()

    @staticmethod
    def _bundle_descriptor(payload: Payload):
        if not isinstance(payload, VirtualPayload):
            return None
        for item in payload.meta:
            if isinstance(item, tuple) and len(item) == 5 and item[0] == "bundle":
                return item[1:]
        return None

    # -- advertising ------------------------------------------------------------

    def _advertise(self) -> None:
        if not self.started:
            return
        entries = sorted(
            (
                (dest, self.predictability_for(dest))
                for dest in self._predictability
            ),
            key=lambda item: -item[1],
        )[:SUMMARY_TOP_K]
        bundle_ids = sorted(self.buffer)[:8]
        self.transport.set_metadata(encode_summary(entries, bundle_ids))
