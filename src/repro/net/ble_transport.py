"""Connection-less data transport over BLE advertisements.

BLE legacy advertisements carry at most 31 bytes, so any payload beyond one
frame is fragmented and sent as a paced burst of fast advertisements
(20 ms apart — a fast advertising interval achievable on real controllers).
Receivers reassemble fragments by (sender, message id).

This mechanism is shared by Omni's BLE technology adapter and by the
baseline systems, so every system pays identical BLE data-path costs —
which is why Table 4's BLE/BLE row shows the same 82 ms latency for all
three systems.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.radio.ble import ADV_PAYLOAD_LIMIT, BleRadio
from repro.radio.frame import RadioKind
from repro.sim.process import Completion

#: Spacing between fragments of one burst (fast advertising interval).
FRAGMENT_INTERVAL_S = 0.020

#: Fragment header: message id (2B), fragment index (1B), fragment count (1B).
FRAGMENT_HEADER = struct.Struct("!HBB")

#: Data bytes per fragment.
FRAGMENT_CAPACITY = ADV_PAYLOAD_LIMIT - FRAGMENT_HEADER.size

#: Bursts larger than this are rejected — BLE cannot carry bulk data
#: (paper Table 4: "BLE packets cannot carry the larger data file").
MAX_MESSAGE_BYTES = FRAGMENT_CAPACITY * 255


class BleTransportError(Exception):
    """Raised for payloads BLE cannot carry or radios in the wrong state."""


def fragment(message_id: int, payload: bytes) -> List[bytes]:
    """Split ``payload`` into framed fragments ready for advertisement."""
    if len(payload) > MAX_MESSAGE_BYTES:
        raise BleTransportError(
            f"payload of {len(payload)}B exceeds BLE burst limit "
            f"({MAX_MESSAGE_BYTES}B)"
        )
    if not 0 <= message_id < (1 << 16):
        raise ValueError(f"message id out of 16-bit range: {message_id}")
    pieces = [
        payload[offset:offset + FRAGMENT_CAPACITY]
        for offset in range(0, len(payload), FRAGMENT_CAPACITY)
    ] or [b""]
    count = len(pieces)
    return [
        FRAGMENT_HEADER.pack(message_id, index, count) + piece
        for index, piece in enumerate(pieces)
    ]


def parse_fragment(frame: bytes) -> Tuple[int, int, int, bytes]:
    """Decode a fragment into (message_id, index, count, piece)."""
    if len(frame) < FRAGMENT_HEADER.size:
        raise BleTransportError(f"fragment too short: {len(frame)}B")
    message_id, index, count = FRAGMENT_HEADER.unpack_from(frame)
    if count == 0 or index >= count:
        raise BleTransportError(
            f"inconsistent fragment header: index={index}, count={count}"
        )
    return message_id, index, count, frame[FRAGMENT_HEADER.size:]


@dataclass
class _PartialMessage:
    count: int
    pieces: Dict[int, bytes] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.pieces) == self.count

    def assemble(self) -> bytes:
        return b"".join(self.pieces[index] for index in range(self.count))


class BleReassembler:
    """Collects fragments per (sender, message id) and emits whole payloads."""

    def __init__(self, on_message: Callable[[bytes, MacAddress], None]) -> None:
        self._on_message = on_message
        self._partials: Dict[Tuple[MacAddress, int], _PartialMessage] = {}
        self.messages_completed = 0

    def accept(self, frame: bytes, sender: MacAddress) -> None:
        """Feed one received advertisement frame into reassembly."""
        message_id, index, count, piece = parse_fragment(frame)
        key = (sender, message_id)
        partial = self._partials.get(key)
        if partial is None or partial.count != count:
            partial = _PartialMessage(count)
            self._partials[key] = partial
        partial.pieces[index] = piece
        if partial.complete:
            del self._partials[key]
            self.messages_completed += 1
            self._on_message(partial.assemble(), sender)

    @property
    def pending(self) -> int:
        """Number of messages with outstanding fragments."""
        return len(self._partials)


class BleBurstSender:
    """Sends framed payloads as paced advertisement bursts."""

    def __init__(self, radio: BleRadio) -> None:
        self.radio = radio
        self._next_message_id = 0
        self.bursts_sent = 0

    def send(self, payload: bytes) -> Completion:
        """Burst ``payload``; completes (with receiver count of the final
        fragment) when the last fragment has been advertised."""
        message_id = self._next_message_id
        self._next_message_id = (self._next_message_id + 1) % (1 << 16)
        frames = fragment(message_id, payload)
        completion = Completion()
        kernel = self.radio.kernel
        self.bursts_sent += 1

        def send_frame(index: int) -> None:
            if not self.radio.enabled:
                completion.fail(BleTransportError(f"{self.radio.name} disabled mid-burst"))
                return
            receivers = self.radio.advertise_once(frames[index])
            if index + 1 < len(frames):
                kernel.call_in(FRAGMENT_INTERVAL_S, lambda: send_frame(index + 1))
            else:
                completion.succeed(receivers)

        # The first fragment goes out one interval from now: the controller
        # must wait for its next advertising opportunity.
        kernel.call_in(FRAGMENT_INTERVAL_S, lambda: send_frame(0))
        return completion


def find_scanning_peer(radio: BleRadio,
                       address: MacAddress) -> Optional[BleRadio]:
    """The enabled, scanning BLE radio with ``address`` in range of
    ``radio``, or None: the receiver a data burst from ``radio`` needs."""
    medium = radio.medium
    for peer in medium.radios(RadioKind.BLE):
        if (
            peer is not radio
            and getattr(peer, "address", None) == address
            and peer.enabled
            and peer.scanning
            and medium.in_range(radio, peer)
        ):
            return peer
    return None


def burst_duration(payload_len: int) -> float:
    """Predicted time to deliver a payload of ``payload_len`` bytes."""
    count = max(1, -(-payload_len // FRAGMENT_CAPACITY))
    return count * FRAGMENT_INTERVAL_S
