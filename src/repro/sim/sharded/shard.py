"""One shard: a kernel + world + medium simulating a strip of the arena.

A :class:`ShardRuntime` owns the nodes whose window-start positions lie in
its strip — those get a full :class:`~repro.radio.base.Device` with a
:class:`~repro.radio.ble.BleRadio` — and hosts lightweight
:class:`MirrorRadio` receivers for halo nodes owned by neighbors.  A
sender therefore broadcasts in exactly one shard per window, and every
receiver that could possibly hear it (owned or mirrored) resolves locally:
cross-shard deliveries are just deliveries to mirrors, recorded with the
receiver's global node index and merged canonically by the coordinator.

Determinism notes: the scenario draws *no* simulation randomness — BLE
propagation is UnitDisk (certain delivery in range, no RNG), scanning is
continuous (a scanner draws none), and every trajectory is a pure
function of ``(seed, node_index)``.  Delivery times and distances are
computed from the same floats in every shard and in the serial reference,
so the canonical record streams match bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.phy.world import World, WorldNode
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import Frame, FrameKind, RadioKind
from repro.radio.medium import DEFAULT_RANGES, Medium
from repro.sim.kernel import Kernel
from repro.sim.sharded import boundary
from repro.sim.sharded.boundary import Advert, Record
from repro.sim.sharded.partition import HALO_SLACK_M, StripPlan
from repro.sim.sharded.spec import (
    PAYLOAD_STRUCT,
    ScenarioSpec,
    build_models,
    population_speed_cap,
)


def node_name(index: int) -> str:
    return f"n{index:05d}"


class MirrorRadio:
    """A halo node's receive-only stand-in on a neighboring shard's medium.

    Duck-typed against the :class:`~repro.radio.base.Radio` surface the
    medium touches (kind, node, enabled, ``accepts_versioned``,
    ``_accepts_frame``, ``accepts_mask``, ``_deliver``) without the
    device/energy machinery a real radio drags in — a mirror exists only
    so in-range broadcasts resolve their receiver locally.
    Its acceptance predicate matches the scenario's owned radios (enabled,
    continuously scanning), so a mirror hears a frame exactly when the
    real radio in the owner shard would have.
    """

    kind = RadioKind.BLE
    is_mirror = True
    enabled = True
    accepts_versioned = False

    __slots__ = ("node", "node_index", "_sink", "_medium_seq")

    def __init__(
        self,
        node: WorldNode,
        node_index: int,
        sink: Callable[[Frame, float, int], None],
    ) -> None:
        self.node = node
        self.node_index = node_index
        self._sink = sink

    @property
    def name(self) -> str:
        return f"{self.node.name}.ble(mirror)"

    def _accepts_frame(self, frame: Frame) -> bool:
        return frame.kind is FrameKind.BLE_ADVERTISEMENT

    @classmethod
    def accepts_mask(cls, radios, frame: Frame, now: float):
        # Batch twin of the constant predicate above: mirrors are always
        # enabled and always scanning, so the mask depends only on the
        # frame kind (same contract as Radio.accepts_mask).
        return [frame.kind is FrameKind.BLE_ADVERTISEMENT] * len(radios)

    def _deliver(self, frame: Frame, distance: float) -> None:
        self._sink(frame, distance, self.node_index)

    def __repr__(self) -> str:
        return f"MirrorRadio({self.node.name}, owner={self.node.owner_shard})"


class ShardRuntime:
    """Builds and advances one shard of a :class:`ScenarioSpec` run."""

    def __init__(
        self,
        spec: ScenarioSpec,
        shards: int,
        shard_index: int,
    ) -> None:
        self.spec = spec
        self.plan = StripPlan(spec.arena_m, shards)
        self.shard_index = shard_index
        self.models = build_models(spec)
        #: Conservative per-window displacement cap D over the *whole*
        #: population (any node, any window): speed cap × horizon.
        self.global_bound = population_speed_cap(self.models) * spec.horizon_s
        self.kernel = Kernel(seed=spec.seed)
        self.world = World(self.kernel)
        self.medium = Medium(self.kernel, self.world)
        self._range = DEFAULT_RANGES[RadioKind.BLE]
        self._owned: Dict[int, BleRadio] = {}
        self._mirrors: Dict[int, MirrorRadio] = {}
        self._records: List[Record] = []
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.mirror_adds = 0
        for index, model in enumerate(self.models):
            if self.plan.strip_of(model.position_at(0.0)) == shard_index:
                self._add_owned(index)
        self.owned_initial = len(self._owned)

    # -- population management --------------------------------------------

    def _record_scan(self, payload: bytes, distance: float, receiver: int) -> None:
        round_index, sender = PAYLOAD_STRUCT.unpack(payload)
        self._records.append(
            (self.kernel.now, sender, receiver, round_index, distance)
        )

    def _record_delivery(self, frame: Frame, distance: float, receiver: int) -> None:
        self._record_scan(frame.payload, distance, receiver)

    def _add_owned(self, index: int) -> None:
        node = self.world.add_node(node_name(index), mobility=self.models[index])
        device = Device(self.kernel, node)
        radio = device.add_radio(BleRadio(device, self.medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=index:
                self._record_scan(payload, distance, me)
        )
        self._owned[index] = radio

    def _remove_owned(self, index: int) -> None:
        radio = self._owned.pop(index)
        self.medium.detach(radio)
        self.world.remove_node(node_name(index))

    def _add_mirror(self, index: int, owner: int, now: float, x: float, y: float) -> None:
        node = boundary.create_mirror(
            self.world, node_name(index), self.models[index], owner, now, x, y
        )
        radio = MirrorRadio(node, index, self._record_delivery)
        self.medium.attach(radio)
        self._mirrors[index] = radio
        self.mirror_adds += 1

    def _remove_mirror(self, index: int) -> None:
        radio = self._mirrors.pop(index)
        self.medium.detach(radio)
        self.world.remove_node(node_name(index))

    # -- horizon protocol --------------------------------------------------

    def horizon_packet(
        self, t0: float, t1: float
    ) -> Tuple[Dict[int, List[Advert]], Dict[int, List[int]]]:
        """Compute this shard's outbound boundary messages at horizon ``t0``.

        For every node owned during the ending window: decide its owner
        for the next window from its position at ``t0`` (handoff when it
        crossed a strip edge), and advertise it into every shard whose
        strip its conservative reach overlaps.  The departing owner
        computes the departing node's adverts too — single-phase barrier:
        the new owner learns of the node and the halo learns its position
        in the same exchange round.
        """
        plan = self.plan
        adverts: Dict[int, List[Advert]] = {}
        handoffs: Dict[int, List[int]] = {}
        departures: List[int] = []
        for index in sorted(self._owned):
            model = self.models[index]
            position = model.position_at(t0)
            new_owner = plan.strip_of(position)
            if new_owner != self.shard_index:
                handoffs.setdefault(new_owner, []).append(index)
                departures.append(index)
            bound = model.displacement_within(t0, t1)
            reach = self._range + bound + self.global_bound + HALO_SLACK_M
            advert = (index, new_owner, position.x, position.y)
            for shard in plan.shards_within(position, reach):
                if shard != new_owner:
                    adverts.setdefault(shard, []).append(advert)
        for index in departures:
            self._remove_owned(index)
            self.handoffs_out += 1
        return adverts, handoffs

    def apply_inbound(
        self, t0: float, handoffs: List[int], adverts: List[Advert]
    ) -> None:
        """Apply the merged inbox for the window starting at ``t0``."""
        for index in sorted(handoffs):
            if index in self._mirrors:
                self._remove_mirror(index)
            self._add_owned(index)
            self.handoffs_in += 1
        wanted: Dict[int, Advert] = {advert[0]: advert for advert in adverts}
        for index in sorted(self._mirrors):
            if index not in wanted:
                self._remove_mirror(index)
        for index in sorted(wanted):
            _, owner, x, y = wanted[index]
            if index in self._owned:
                raise boundary.BoundaryProtocolError(
                    f"shard {self.shard_index} owns node {index} but "
                    f"received a mirror advert from shard {owner}"
                )
            if index in self._mirrors:
                node = self._mirrors[index].node
                boundary.verify_mirror_position(node, t0, x, y)
                if node.owner_shard != owner:
                    boundary.reassign_mirror_owner(self.world, node, owner)
            else:
                self._add_mirror(index, owner, t0, x, y)

    def schedule_window(self, t0: float, t1: float) -> None:
        """Queue owned nodes' beacons firing inside ``[t0, t1)``.

        Scheduled per window, after ownership settles, so a node beacons
        in exactly the shard that owns it for that window.
        """
        for round_index, fire_at in enumerate(self.spec.round_times()):
            if t0 <= fire_at < t1:
                for index in sorted(self._owned):
                    payload = PAYLOAD_STRUCT.pack(round_index, index)
                    self.kernel.call_at(
                        fire_at,
                        lambda radio=self._owned[index], p=payload:
                            radio.advertise_once(p),
                    )

    def run_window(self, t1: float) -> None:
        """Advance to the next horizon (events strictly before ``t1``)."""
        self.kernel.run_window(t1)

    def take_records(self) -> List[Record]:
        """Drain the delivery records of the windows run since the last call.

        Only :meth:`run_window` executes kernel events, so every record
        handed over belongs to a window that has already ended.
        """
        records = self._records
        self._records = []
        return records

    @property
    def owned_count(self) -> int:
        return len(self._owned)

    @property
    def mirror_count(self) -> int:
        return len(self._mirrors)

    def owned_indexes(self) -> List[int]:
        """Node indexes this shard currently owns, sorted."""
        return sorted(self._owned)

    def mirror_indexes(self) -> List[int]:
        """Node indexes currently mirrored into this shard, sorted."""
        return sorted(self._mirrors)
