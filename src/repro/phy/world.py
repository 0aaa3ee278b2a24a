"""The physical world: a registry of placed, possibly moving, nodes.

Under sharded execution (:mod:`repro.sim.sharded`) a world holds two
kinds of node: *owned* nodes it simulates, and *mirror* nodes — read-only
replicas of nodes owned by a neighboring shard, present so halo-band
transmissions resolve receivers locally.  Mirror state may only change
inside the shard boundary-exchange API (:meth:`World.boundary_exchange`);
mutating a mirror anywhere else raises :class:`MirrorNodeError`, which
every sharded run exercises.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.phy.geometry import Position
from repro.phy.index import TimeAwareGridIndex
from repro.phy.mobility import MobilityModel, Static
from repro.sim.kernel import Kernel

#: Grid granularity for the world's own range queries.  Sits between the
#: BLE (30 m) and WiFi (100 m) ranges so either query touches few cells.
WORLD_GRID_CELL_M = 50.0

#: Hoisted sort key for :meth:`World.nodes_within` — building a lambda per
#: query showed up in mobility-heavy profiles.
_NODE_NAME = attrgetter("name")


class MirrorNodeError(RuntimeError):
    """A mirror node was mutated outside the boundary-exchange API."""


class WorldNode:
    """One physical object (device, beacon, access point) in the world."""

    def __init__(self, world: "World", name: str, mobility: MobilityModel) -> None:
        self.world = world
        self.name = name
        self.mobility = mobility
        #: Shard index owning this node under sharded execution, or None in
        #: an ordinary (unsharded) world.
        self.owner_shard: Optional[int] = None
        #: True when this node is a read-only replica of a node owned by a
        #: neighboring shard.
        self.is_mirror = False

    @property
    def position(self) -> Position:
        """Current position, derived from the mobility model and the clock."""
        return self.mobility.position_at(self.world.kernel.now)

    def distance_to(self, other: "WorldNode") -> float:
        """Current distance to another node in meters."""
        return self.position.distance_to(other.position)

    def _check_mutable(self) -> None:
        if self.is_mirror and not self.world._in_boundary_exchange:
            raise MirrorNodeError(
                f"node {self.name!r} is a mirror owned by shard "
                f"{self.owner_shard}; mutate it only inside "
                "World.boundary_exchange()"
            )

    def move_to(self, position: Position) -> None:
        """Teleport the node by replacing its mobility model with Static."""
        self._check_mutable()
        self.mobility = Static(position)
        self.world._mobility_changed(self)

    def set_mobility(self, mobility: MobilityModel) -> None:
        """Replace the node's mobility model."""
        self._check_mutable()
        self.mobility = mobility
        self.world._mobility_changed(self)

    def __repr__(self) -> str:
        return f"WorldNode({self.name!r}, at={self.position})"


class World:
    """Registry of :class:`WorldNode` objects sharing one kernel clock."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._nodes: Dict[str, WorldNode] = {}
        self._index = TimeAwareGridIndex(WORLD_GRID_CELL_M)
        # Immutable tuple: snapshot semantics for listeners firing during
        # iteration without copying the list on every single move event.
        self._move_listeners: Tuple[Callable[[WorldNode], None], ...] = ()
        self._in_boundary_exchange = False

    def add_move_listener(self, listener: Callable[[WorldNode], None]) -> None:
        """Register ``listener(node)`` for mobility-model changes.

        Fired by :meth:`WorldNode.move_to` / :meth:`WorldNode.set_mobility`;
        caches layered over the world (e.g. the radio medium's per-instant
        positions) drop their stale state on this signal.
        """
        self._move_listeners = self._move_listeners + (listener,)

    def _mobility_changed(self, node: WorldNode) -> None:
        self._index.update(node, node.mobility)
        for listener in self._move_listeners:
            listener(node)

    def add_node(
        self,
        name: str,
        position: Optional[Position] = None,
        mobility: Optional[MobilityModel] = None,
    ) -> WorldNode:
        """Register a node, either static at ``position`` or with ``mobility``."""
        if name in self._nodes:
            raise ValueError(f"node name {name!r} already registered")
        if mobility is None:
            if position is None:
                raise ValueError("provide either position or mobility")
            mobility = Static(position)
        elif position is not None:
            raise ValueError("provide position or mobility, not both")
        node = WorldNode(self, name, mobility)
        self._nodes[name] = node
        self._index.insert(node, mobility)
        return node

    def add_mirror_node(
        self,
        name: str,
        mobility: MobilityModel,
        owner_shard: int,
    ) -> WorldNode:
        """Register a read-only replica of a node owned by another shard.

        The mirror participates in range queries and frame delivery like
        any node, but its state may only change inside
        :meth:`boundary_exchange` — ordinary code mutating it raises
        :class:`MirrorNodeError`.
        """
        node = self.add_node(name, mobility=mobility)
        node.owner_shard = owner_shard
        node.is_mirror = True
        return node

    @contextmanager
    def boundary_exchange(self) -> Iterator["World"]:
        """Context that authorizes mirror-node mutation.

        Only the shard boundary-exchange code (applying a neighbor's
        horizon packet) should enter this; a mirror mutation outside it
        raises :class:`MirrorNodeError`.
        """
        previous = self._in_boundary_exchange
        self._in_boundary_exchange = True
        try:
            yield self
        finally:
            self._in_boundary_exchange = previous

    def remove_node(self, name: str) -> None:
        """Unregister a node (e.g. a device leaving the scenario)."""
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r}")
        node = self._nodes.pop(name)
        self._index.remove(node)

    def node(self, name: str) -> WorldNode:
        """Look up a node by name."""
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[WorldNode]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes_within(
        self,
        origin: WorldNode,
        radius: float,
        now: Optional[float] = None,
    ) -> List[WorldNode]:
        """All other nodes within ``radius`` meters of ``origin``, by name order.

        Follows the :class:`~repro.phy.index.SpatialQuery` protocol
        spelling ``(origin, radius, now)``; ``origin`` is the node at the
        center of the query disk and ``now`` defaults to the kernel clock.

        Served from the time-aware grid: only nodes in cells overlapping
        the (mobility-inflated) query disk take the exact distance test,
        instead of every node in the world.
        """
        if now is None:
            now = self.kernel.now
        point = origin.mobility.position_at(now)
        return sorted(
            (
                node
                for node in self._index.query(point, radius, now)
                if node is not origin
                and point.distance_to(node.mobility.position_at(now)) <= radius
            ),
            key=_NODE_NAME,
        )
