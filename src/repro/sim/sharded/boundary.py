"""The shard boundary-exchange API: packed messages + mirror mutation.

Boundary traffic between shards is three kinds of struct-packed message,
exchanged at every horizon as plain bytes through the coordinator:

- **advert**: "node ``index`` (owned by ``owner``) starts this window at
  ``(x, y)`` inside your halo" — the receiving shard mirrors the node.
- **handoff**: "node ``index`` crossed into your strip; you own it now".
- **record**: one frame delivery ``(time, sender, receiver, round,
  distance)`` — streamed to the coordinator for the canonical merge.

This module is also the *only* place mirror :class:`WorldNode` state may
change (:class:`~repro.phy.world.MirrorNodeError` fires anywhere else):
every mutation here runs inside
:meth:`~repro.phy.world.World.boundary_exchange`.

Advert application double-checks the protocol: the sender ships the
positions it computed, and the mirror side recomputes them from its own
model table — pure functions of ``(seed, index)`` — and requires bitwise
equality.  A mismatch means the shards' views of the world diverged.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

from repro.phy.mobility import MobilityModel
from repro.phy.world import World, WorldNode
from repro.sim.sharded.spec import RECORD_STRUCT

#: (node_index, owner_shard, x, y)
ADVERT_STRUCT = struct.Struct("<IIdd")

#: (node_index,)
HANDOFF_STRUCT = struct.Struct("<I")

Advert = Tuple[int, int, float, float]
Record = Tuple[float, int, int, int, float]


class BoundaryProtocolError(RuntimeError):
    """Shards disagreed about the world: a boundary invariant failed."""


# -- message codecs ----------------------------------------------------------


def pack_adverts(adverts: Iterable[Advert]) -> bytes:
    pack = ADVERT_STRUCT.pack
    return b"".join(pack(*advert) for advert in adverts)


def unpack_adverts(blob: bytes) -> List[Advert]:
    return [advert for advert in ADVERT_STRUCT.iter_unpack(blob)]


def pack_handoffs(indexes: Iterable[int]) -> bytes:
    pack = HANDOFF_STRUCT.pack
    return b"".join(pack(index) for index in indexes)


def unpack_handoffs(blob: bytes) -> List[int]:
    return [index for (index,) in HANDOFF_STRUCT.iter_unpack(blob)]


def pack_records(records: Iterable[Record]) -> bytes:
    pack = RECORD_STRUCT.pack
    return b"".join(pack(*record) for record in records)


def unpack_records(blob: bytes) -> List[Record]:
    return [record for record in RECORD_STRUCT.iter_unpack(blob)]


#: Header of a combined per-destination boundary message:
#: (advert_count, handoff_count).
_BOUNDARY_HEADER = struct.Struct("<II")


def pack_boundary(adverts: List[Advert], handoffs: List[int]) -> bytes:
    """One shard→shard horizon message: adverts + handoffs, one blob."""
    return (
        _BOUNDARY_HEADER.pack(len(adverts), len(handoffs))
        + pack_adverts(adverts)
        + pack_handoffs(handoffs)
    )


def unpack_boundary(blob: bytes) -> Tuple[List[Advert], List[int]]:
    advert_count, handoff_count = _BOUNDARY_HEADER.unpack_from(blob, 0)
    offset = _BOUNDARY_HEADER.size
    adverts_end = offset + advert_count * ADVERT_STRUCT.size
    handoffs_end = adverts_end + handoff_count * HANDOFF_STRUCT.size
    if handoffs_end != len(blob):
        raise BoundaryProtocolError(
            f"boundary blob is {len(blob)}B; header implies {handoffs_end}B"
        )
    return (
        unpack_adverts(blob[offset:adverts_end]),
        unpack_handoffs(blob[adverts_end:handoffs_end]),
    )


# -- mirror mutation (the exchange API proper) -------------------------------


def create_mirror(
    world: World,
    name: str,
    mobility: MobilityModel,
    owner_shard: int,
    now: float,
    x: float,
    y: float,
) -> WorldNode:
    """Register a halo mirror and validate it against the advert."""
    node = world.add_mirror_node(name, mobility, owner_shard)
    verify_mirror_position(node, now, x, y)
    return node


def verify_mirror_position(node: WorldNode, now: float, x: float, y: float) -> None:
    """Require the local trajectory to reproduce the adverted position.

    Bitwise, not approximate: both sides evaluate the same pure model at
    the same float instant, so any difference is a real divergence (seed
    drift, version skew), not rounding.
    """
    position = node.mobility.position_at(now)
    if position.x != x or position.y != y:
        raise BoundaryProtocolError(
            f"mirror {node.name!r} diverged at t={now}: local model says "
            f"({position.x}, {position.y}), advert says ({x}, {y})"
        )


def reassign_mirror_owner(world: World, node: WorldNode, owner_shard: int) -> None:
    """Record that a mirrored node was handed to a different owner shard."""
    with world.boundary_exchange():
        node.owner_shard = owner_shard
