"""The wireless medium: geometry-aware frame delivery between radios.

One :class:`Medium` instance per simulation carries every technology; each
:class:`~repro.radio.frame.RadioKind` has its own propagation model.  The
medium decides *who can hear* a transmission; receiver radios decide what to
do with it (scan-window gating, mesh membership, etc.) via
``_accepts_frame``.

The broadcast pipeline
----------------------

A broadcast runs in four batch stages, each a separately overridable seam:

1. **query** — :meth:`Medium._cell_batch` returns every candidate with
   its position as parallel numpy arrays.  Once per (timestamp,
   attach/move version) :meth:`Medium._kind_arrays` positions every radio
   of the technology and bins it into square cells whose side is the
   model's cutoff (``max_range()``); a cell's batch is then a few sorted
   slices plus one distance trim, cached per (technology, cell) so a
   beacon round's many same-cell senders share one gather (hit/miss
   counts in ``batch_cache_hits``/``batch_cache_misses``).  A model with
   no cutoff gets one batch holding every radio of the technology.
2. **probability** — :meth:`Medium._delivery_mask` computes distances,
   delivery probabilities, and the RNG delivery rolls in one numpy pass.
3. **acceptance** — :meth:`Medium._acceptance_mask` asks each concrete
   radio class for one ``accepts_mask`` over its receivers instead of N
   virtual ``_accepts_frame`` calls; acceptance draws no RNG, so the
   mask order is free and only the delivery side effects below are
   order-sensitive.
4. **delivery** — all of a transmission's arrivals are scheduled as a
   single pooled :class:`_BatchDelivery` event whose delivery-time
   re-check is the same acceptance mask, with ``_deliver`` side effects
   running in ascending attach order over it.

A cell's batch holds more radios than any one sender can reach.  The
surplus lies beyond the cutoff, where the model's delivery probability
is exactly 0: no frame, and no RNG draw.

The semantics are those of the scalar one-receiver-at-a-time loop the
test suite keeps as its oracle: scan every radio of the kind in attach
order, sender excluded; ``Position.distance_to``, ``frame_delivered``,
then ``_accepts_frame``; one arrival per receiver, re-checked on
arrival.  The RNG draw-order contract (see :mod:`repro.phy.propagation`)
is what keeps the batch byte-identical to it: one uniform draw per
candidate with ``0 < p < 1``, consumed in ascending attach order with the
sender excluded.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.geometry import Position
from repro.phy.propagation import PropagationModel, UnitDisk
from repro.phy.world import World, WorldNode
from repro.radio.base import Radio
from repro.radio.frame import Frame, RadioKind
from repro.sim.kernel import Kernel
from repro.util import array
from repro.util.rng import SeededRng

#: Default communication ranges per technology, in meters.  BLE and WiFi
#: follow common open-air figures; NFC is contact-range by design.
DEFAULT_RANGES = {
    RadioKind.BLE: 30.0,
    RadioKind.WIFI: 100.0,
    RadioKind.NFC: 0.1,
}

#: Propagation delay is negligible at D2D ranges; modeled as a constant.
PROPAGATION_DELAY_S = 5e-6

#: Packs a (cell_x, cell_y) pair into one int64 cell id for the per-stamp
#: binned gather (see Medium._kind_arrays): ids of one x-column are
#: contiguous, so a column's y-range is a single sorted-array slice.
_CELL_STRIDE = 1 << 32


class _MIXED:
    """Sentinel marking a RadioKind with more than one concrete class.

    A class (not an instance) so the ``Medium._mono_class`` values stay
    type-annotated; it can never equal ``type(radio)`` for any radio.
    """


class _BatchDelivery:
    """All of one broadcast's arrivals as a single pooled scheduled event.

    The broadcast schedules one kernel event per transmission instead of
    one per receiver.  Arrival semantics are those of per-receiver events:
    the same per-receiver re-check runs at the same instant — as one
    acceptance mask per batch — and ``_deliver`` side effects run in
    ascending attach order, exactly the order per-receiver events
    (scheduled back-to-back, hence contiguous in the kernel's
    same-timestamp FIFO) would run in.  Shells recycle through
    ``Medium._batch_pool``: on firing, the payload moves to locals, the
    slots are cleared, and the shell returns to the pool *before* the
    delivery side effects run — kernel events are one-shot, so a nested
    broadcast inside ``_deliver`` may safely repopulate the shell.
    """

    __slots__ = ("medium", "receivers", "frame", "distances", "accept_version")

    def __init__(self, medium: "Medium", receivers: List[Radio], frame: Frame,
                 distances: List[float], accept_version: int) -> None:
        self.medium = medium
        self.receivers = receivers
        self.frame = frame
        self.distances = distances
        #: The medium's acceptance-state version captured at scheduling,
        #: or -1 when the batch is not exempt from the delivery re-check
        #: (see Medium._execute_batch_delivery).
        self.accept_version = accept_version

    def __call__(self) -> None:
        medium = self.medium
        receivers = self.receivers
        frame = self.frame
        distances = self.distances
        accept_version = self.accept_version
        self.receivers = None
        self.frame = None
        self.distances = None
        medium._batch_pool.append(self)
        medium._execute_batch_delivery(receivers, frame, distances,
                                       accept_version)


class _CellBatch:
    """Cached candidate arrays for every sender in one grid cell.

    ``radios`` is attach-order sorted; ``xs``/``ys`` are the matching
    float64 coordinates and ``index`` the matching ascending positions in
    the per-stamp arrays (see ``Medium._kind_arrays``), binary-searched to
    locate the sender.
    ``accept_cache`` memoises the batch-wide acceptance pre-filter for
    version-covered radio classes as ``(accept_version, frame_kind, mask,
    all_true)`` — every same-cell sender at one stamp shares one mask
    instead of recomputing it per broadcast.  ``scratch`` holds the
    batch-sized work buffers of :meth:`Medium._delivery_mask` (two
    float64, one bool), so the per-broadcast array pass allocates nothing.

    Only lists and numeric arrays: an object-dtype ndarray would hide the
    radios from the cycle collector and keep the whole scene alive.
    """

    __slots__ = ("radios", "xs", "ys", "index", "accept_cache", "scratch")

    def __init__(self, radios, xs, ys, index) -> None:
        self.radios = radios
        self.xs = xs
        self.ys = ys
        self.index = index
        self.accept_cache = None
        self.scratch = None


class Medium:
    """Routes frames from a transmitting radio to in-range receivers."""

    def __init__(
        self,
        kernel: Kernel,
        world: World,
        propagation: Optional[Dict[RadioKind, PropagationModel]] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        self.kernel = kernel
        self.world = world
        self.rng = rng or kernel.rng.child("medium")
        self.propagation: Dict[RadioKind, PropagationModel] = {
            kind: UnitDisk(radius) for kind, radius in DEFAULT_RANGES.items()
        }
        if propagation:
            self.propagation.update(propagation)
        self._radios: Dict[RadioKind, List[Radio]] = {kind: [] for kind in RadioKind}
        self._adhoc_mesh = None
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        # Deliveries heard by halo mirror receivers (sharded execution):
        # counted within frames_delivered too, broken out for shard stats.
        self.frames_cross_shard = 0
        #: Candidate-batch cache outcomes, alongside the frame counters: a
        #: hit means a same-cell sender reused another's gather this stamp.
        self.batch_cache_hits = 0
        self.batch_cache_misses = 0
        self._attach_seq = 0
        # Per-(kind, cell) candidate batches, valid for one (timestamp,
        # attach/move version) — see _cell_batch.
        self._batch_cache: Dict[Tuple[RadioKind, Optional[Tuple[int, int]]],
                                _CellBatch] = {}
        self._batch_stamp: Tuple[float, int] = (-1.0, -1)
        self._batch_version = 0
        # Per-stamp, per-kind position arrays over every attached radio,
        # cell-binned for the batch gather — see _kind_arrays.  Shares
        # the batch cache's (timestamp, version) validity.
        self._stamp_arrays: Dict[RadioKind, tuple] = {}
        # Recycled delivery-event shells (see _BatchDelivery): bounded by
        # the peak number of in-flight transmissions.
        self._batch_pool: List[_BatchDelivery] = []
        # Whether any attached radio is a halo mirror: lets the batch
        # delivery loop skip the per-receiver is_mirror test entirely in
        # unsharded runs (the overwhelming majority).
        self._has_mirrors = False
        # The single concrete radio class attached per kind, or _MIXED
        # once a second class shows up (never un-mixed; detach keeps it
        # conservative).  A mono-kind batch is provably homogeneous, so
        # the acceptance and delivery stages skip their per-call type
        # scans and dispatch one class-level batch call directly.
        self._mono_class: Dict[RadioKind, type] = {}
        # Bumped by every mutation of acceptance-relevant radio state
        # (enable/disable, scan start/stop).  A scheduled batch whose
        # every receiver's class vouches for this coverage (see
        # Radio._accepts_versioned_ref) skips the delivery-time re-check
        # while the version is unchanged: all receivers accepted at
        # scheduling, and nothing that _accepts_frame reads has moved.
        self._accept_version = 0
        world.add_move_listener(self._node_moved)

    def adhoc_mesh(self):
        """The shared ad-hoc mesh that fast peerings converge on.

        802.11s peering among co-located devices forms one MBSS; modeling it
        as a single lazily-created mesh keeps concurrent pairwise peerings
        from creating rival meshes that evict each other.
        """
        if self._adhoc_mesh is None:
            from repro.net.mesh import MeshNetwork

            self._adhoc_mesh = MeshNetwork(self.kernel, "adhoc")
        return self._adhoc_mesh

    def attach(self, radio: Radio) -> None:
        """Register a radio; called by the Radio constructor."""
        radio._medium_seq = self._attach_seq
        self._attach_seq += 1
        self._batch_version += 1
        if radio.is_mirror:
            self._has_mirrors = True
        cls = type(radio)
        known = self._mono_class.get(radio.kind)
        if known is None:
            self._mono_class[radio.kind] = cls
        elif known is not cls:
            self._mono_class[radio.kind] = _MIXED
        self._radios[radio.kind].append(radio)

    def detach(self, radio: Radio) -> None:
        """Unregister a radio (device leaving the simulation)."""
        self._radios[radio.kind].remove(radio)
        self._batch_version += 1

    def _node_moved(self, node: WorldNode) -> None:
        """A node changed mobility model: every cached position is stale."""
        self._batch_version += 1

    def radios(self, kind: RadioKind) -> Tuple[Radio, ...]:
        """All attached radios of ``kind`` (enabled or not), attach order.

        A tuple: the attach-order registry is the medium's source of truth
        for RNG draw order, so callers get an immutable snapshot rather
        than a list they could corrupt.
        """
        return tuple(self._radios[kind])

    def _ensure_stamp(self) -> float:
        """Roll the per-stamp caches to the current (clock, version) tick.

        The candidate-batch cache and the per-kind position arrays share
        one validity stamp: any clock advance or attach/detach/move
        invalidates both wholesale.  Returns the current clock.
        """
        now = self.kernel.now
        stamp = self._batch_stamp
        if stamp[0] != now or stamp[1] != self._batch_version:
            self._batch_cache.clear()
            self._stamp_arrays.clear()
            self._batch_stamp = (now, self._batch_version)
        return now

    def _kind_arrays(self, kind: RadioKind, now: float,
                     size: Optional[float]):
        """Per-stamp struct-of-arrays over every attached radio of ``kind``.

        One position pass per stamp (``position_at(now)`` — the same pure
        function, hence the same float64s, ``node.position`` reads) feeds
        every batch of the stamp.  Radios are listed in attach order, so
        index order *is* ascending ``_medium_seq`` order.  Returns
        ``(radios, xs, ys, index_of, order, sorted_cid)`` where
        ``index_of`` maps ``_medium_seq`` back to array index.  With a
        cell ``size``, ``order`` sorts radios by packed cell id (stable,
        so attach order survives within a cell) and ``sorted_cid`` is the
        matching sorted id array — together they make one cell-column
        gather a pair of binary searches; without one (unbounded model)
        both are None.  Call through :meth:`_ensure_stamp` first.
        """
        entry = self._stamp_arrays.get(kind)
        if entry is not None:
            return entry
        radios = self._radios[kind]
        xs_list: List[float] = []
        ys_list: List[float] = []
        append_x = xs_list.append
        append_y = ys_list.append
        for radio in radios:
            point = radio.node.mobility.position_at(now)
            append_x(point.x)
            append_y(point.y)
        xs = np.asarray(xs_list, dtype=np.float64)
        ys = np.asarray(ys_list, dtype=np.float64)
        index_of = {
            radio._medium_seq: i for i, radio in enumerate(radios)
        }
        order = sorted_cid = None
        if size is not None:
            cid = (
                np.floor(xs / size).astype(np.int64) * _CELL_STRIDE
                + np.floor(ys / size).astype(np.int64)
            )
            order = np.argsort(cid, kind="stable")
            sorted_cid = cid[order]
        entry = (radios, xs, ys, index_of, order, sorted_cid)
        self._stamp_arrays[kind] = entry
        return entry

    def _cell_batch(
        self,
        kind: RadioKind,
        origin: Position,
        cutoff: Optional[float],
    ) -> _CellBatch:
        """Query stage: the cached candidate batch covering ``origin``'s cell.

        Cells are ``cutoff`` meters square.  One gather serves every
        same-cell sender at this timestamp.  The batch must contain every
        radio within ``cutoff`` of *any* origin in the cell — i.e. within
        Chebyshev ``cutoff + size/2`` of the cell center — and is free to
        contain more: candidates beyond ``cutoff`` have delivery
        probability 0 (no frame, no draw).  The gather is a column-slice
        scan of the per-stamp binned arrays (:meth:`_kind_arrays`),
        trimmed to the disk that provably covers every origin in the cell
        — ``cutoff + 0.75·size``, a safe margin over the cell
        half-diagonal (``size·√2/2``).  A ``cutoff`` of None (unbounded
        model, or a zero range that gives no cell size) means one batch
        of every radio of ``kind``.  Invalidated whenever the clock
        advances or a radio attaches/detaches/moves.
        """
        now = self._ensure_stamp()
        size = cutoff
        cell = (
            None if size is None
            else (math.floor(origin.x / size), math.floor(origin.y / size))
        )
        key = (kind, cell)
        batch = self._batch_cache.get(key)
        if batch is not None:
            self.batch_cache_hits += 1
            return batch
        self.batch_cache_misses += 1
        radios, xs_all, ys_all, _, order, sorted_cid = (
            self._kind_arrays(kind, now, size)
        )
        if cell is None:
            batch = _CellBatch(radios, xs_all, ys_all, range(len(radios)))
            self._batch_cache[key] = batch
            return batch
        # Every cell whose box meets the required Chebyshev disk: offset
        # d qualifies iff (d - 0.5)·size ≤ cutoff + 0.5·size, so d ≤ 2.
        pieces = []
        lo_id = cell[1] - 2
        hi_id = cell[1] + 2
        for cx in range(cell[0] - 2, cell[0] + 3):
            base = cx * _CELL_STRIDE
            lo = np.searchsorted(sorted_cid, base + lo_id)
            hi = np.searchsorted(sorted_cid, base + hi_id, side="right")
            if lo != hi:
                pieces.append(order[lo:hi])
        if not pieces:
            batch = _CellBatch([], xs_all[:0], ys_all[:0], [])
            self._batch_cache[key] = batch
            return batch
        idx = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        idx = np.sort(idx)  # index order == ascending attach order
        xs = xs_all[idx]
        ys = ys_all[idx]
        reach = cutoff + 0.75 * size
        dxc = xs - (cell[0] + 0.5) * size
        dyc = ys - (cell[1] + 0.5) * size
        near = (dxc * dxc + dyc * dyc) <= reach * reach
        if not near.all():
            idx = idx[near]
            xs = xs[near]
            ys = ys[near]
        index = idx.tolist()
        batch = _CellBatch([radios[i] for i in index], xs, ys, index)
        self._batch_cache[key] = batch
        return batch

    def in_range(self, a: Radio, b: Radio) -> bool:
        """True if radios ``a`` and ``b`` are within their technology's range."""
        if a.kind is not b.kind:
            return False
        model = self.propagation[a.kind]
        return model.in_range(a.node.distance_to(b.node))

    def reachable_from(self, sender: Radio) -> List[Radio]:
        """Enabled same-kind radios currently in range of ``sender``."""
        model = self.propagation[sender.kind]
        origin = sender.node.position
        batch = self._cell_batch(sender.kind, origin, model.max_range() or None)
        distances = array.euclidean_distances(
            origin.x, origin.y, batch.xs, batch.ys
        )
        mask = model.in_range_mask(distances)
        return [
            radio
            for radio, hit in zip(batch.radios, mask)
            if hit and radio is not sender and radio.enabled
        ]

    def broadcast(self, sender: Radio, frame: Frame) -> int:
        """Deliver ``frame`` to every in-range receiver that accepts it.

        Delivery happens after the frame's airtime plus propagation delay.
        Returns the number of receivers the frame was scheduled to.
        """
        self.frames_sent += 1
        kind = sender.kind
        model = self.propagation[kind]
        # A zero range gives no cell size: like an unbounded model, it
        # gets one batch of every radio of the kind.
        cutoff = model.max_range() or None
        # The sender's position comes from the same per-stamp array pass
        # that positions the batch: position_at(now) is pure, so these are
        # the very float64s ``sender.node.position`` would produce.
        now = self._ensure_stamp()
        entry = self._kind_arrays(kind, now, cutoff)
        gpos = entry[3].get(sender._medium_seq, -1)
        if gpos >= 0:
            origin = Position(float(entry[1][gpos]), float(entry[2][gpos]))
        else:  # pragma: no cover - detached sender
            origin = sender.node.position
        batch = self._cell_batch(kind, origin, cutoff)
        radios = batch.radios
        if not radios:
            return 0
        index = batch.index
        sender_pos = bisect_left(index, gpos)
        if sender_pos == len(index) or index[sender_pos] != gpos:
            sender_pos = -1
        delivered, distances = self._delivery_mask(
            model, origin, batch, sender_pos
        )
        mono = self._mono_class.get(kind)
        ref = getattr(mono, "_accepts_versioned_ref", None)
        if ref is not None and ref is getattr(mono, "_accepts_frame", None):
            # Version-covered mono-class kind (the common case): one
            # batch-wide pre-filter mask per (cell, stamp, version, frame
            # kind) is shared by every same-cell sender, and the
            # delivery-time re-check is elided while the version holds
            # (see _execute_batch_delivery).
            version = self._accept_version
            cache = batch.accept_cache
            if (
                cache is None
                or cache[0] != version
                or cache[1] is not frame.kind
            ):
                full = np.asarray(
                    self._acceptance_mask(radios, frame, now, mono),
                    dtype=bool,
                )
                cache = (version, frame.kind, full, bool(full.all()))
                batch.accept_cache = cache
            sel = delivered if cache[3] else delivered & cache[2]
            receivers = list(compress(radios, sel.tolist()))
            if not receivers:
                return 0
            distances_out = distances[sel].tolist()
            accept_version = version
        else:
            candidates = list(compress(radios, delivered.tolist()))
            if not candidates:
                return 0
            dists = distances[delivered].tolist()
            mask = self._acceptance_mask(candidates, frame, now, mono)
            if all(mask):
                # Every candidate accepted — skip the filtered rebuild.
                receivers = candidates
                distances_out = dists
            else:
                receivers = [c for c, hit in zip(candidates, mask) if hit]
                distances_out = [d for d, hit in zip(dists, mask) if hit]
            if not receivers:
                return 0
            accept_version = -1
        self._schedule_batch(
            receivers, frame, distances_out,
            frame.airtime + PROPAGATION_DELAY_S, accept_version,
        )
        return len(receivers)

    def _delivery_mask(
        self,
        model: PropagationModel,
        origin: Position,
        batch: _CellBatch,
        sender_pos: int,
    ):
        """Probability stage: distances, probabilities, and delivery rolls.

        Decides which candidates the model (and, for ``0 < p < 1``, the
        RNG) delivered the frame to, sender excluded.  RNG draws follow
        the contract: ascending attach order (batch order *is* attach
        order), one draw per candidate with fractional probability, none
        for the sender.  Returns ``(delivered, distances)`` — a boolean
        mask and the full distance array, both batch-parallel and both
        backed by per-batch scratch the caller must consume before the
        next broadcast.
        """
        # Reuse per-batch scratch buffers: every ufunc below is the same
        # correctly-rounded operation as its allocating form (out= changes
        # where bits land, never which bits), and no buffer escapes —
        # results leave only via .tolist() / fancy indexing, both of which
        # copy.
        scratch = batch.scratch
        if scratch is None:
            scratch = (
                np.empty_like(batch.xs),
                np.empty_like(batch.xs),
                np.empty(len(batch.xs), dtype=bool),
            )
            batch.scratch = scratch
        dx, dy, delivered = scratch
        np.subtract(batch.xs, origin.x, out=dx)
        np.subtract(batch.ys, origin.y, out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        distances = np.sqrt(dx, out=dx)
        if type(model) is UnitDisk:
            np.less_equal(distances, model.radius, out=delivered)
        else:
            ps = np.asarray(
                model.delivery_probabilities(distances), dtype=np.float64
            )
            np.greater_equal(ps, 1.0, out=delivered)
            need_draw = (ps > 0.0) & ~delivered
            if sender_pos >= 0:
                # Exclude the sender *before* drawing: a model may give
                # 0 < p < 1 even at distance 0, and the scalar loop never
                # rolls for the sender.
                need_draw[sender_pos] = False
            draw_at = np.nonzero(need_draw)[0]
            if draw_at.size:
                rng = self.rng
                draws = np.fromiter(
                    (rng.random() for _ in range(draw_at.size)),
                    dtype=np.float64,
                    count=draw_at.size,
                )
                # Mirrors SeededRng.bernoulli: delivered iff u < p.
                delivered[draw_at] = draws < ps[draw_at]
        if sender_pos >= 0:
            delivered[sender_pos] = False
        return delivered, distances

    def _acceptance_mask(
        self, radios: Sequence[Radio], frame: Frame, now: float,
        mono: Optional[type] = None,
    ) -> List[bool]:
        """Acceptance stage: one ``accepts_mask`` call per concrete class.

        Groups ``radios`` by type and asks each class for its batch mask
        (``Radio.accepts_mask``), scattering the submasks back into radio
        order.  Duck-typed receivers without an ``accepts_mask`` surface
        fall back to the scalar ``_accepts_frame`` loop — as do Radio
        subclasses that override the scalar reference without a batch
        twin (their ``accepts_mask`` delegates elementwise).  Acceptance
        draws no RNG, so grouping cannot perturb any seed stream; the
        mask is elementwise identical to per-receiver ``_accepts_frame``.

        ``mono`` is a caller-provided homogeneity proof: the mono-class
        registry entry for the one kind every radio in ``radios`` is
        known to belong to (broadcast candidates come from a single
        technology).  When it matches ``type(radios[0])`` the per-call
        type scan is skipped; callers with mixed or unknown kinds must
        leave it None.
        """
        if not radios:
            return []
        # Homogeneous batches (one radio class — the overwhelmingly common
        # shape) take a single mask call with no grouping dict on the hot
        # path.
        cls = type(radios[0])
        homogeneous = mono is cls
        if not homogeneous:
            for radio in radios:
                if type(radio) is not cls:
                    break
            else:
                homogeneous = True
        if homogeneous:
            batch = getattr(cls, "accepts_mask", None)
            if batch is None:
                return [radio._accepts_frame(frame) for radio in radios]
            mask = batch(radios, frame, now)
            return mask if type(mask) is list else [bool(hit) for hit in mask]
        groups: Dict[type, List[int]] = {}
        for pos, radio in enumerate(radios):
            groups.setdefault(type(radio), []).append(pos)
        mask = [False] * len(radios)
        for cls, positions in groups.items():
            group = [radios[pos] for pos in positions]
            batch = getattr(cls, "accepts_mask", None)
            if batch is None:
                submask = [radio._accepts_frame(frame) for radio in group]
            else:
                submask = batch(group, frame, now)
            for pos, hit in zip(positions, submask):
                mask[pos] = bool(hit)
        return mask

    # -- delivery stage (pooled events + their execution seams) ---------------

    def _schedule_batch(
        self,
        receivers: List[Radio],
        frame: Frame,
        distances: List[float],
        delay: float,
        accept_version: int = -1,
    ) -> None:
        """Schedule one broadcast's arrivals as a single pooled batch event."""
        pool = self._batch_pool
        if pool:
            event = pool.pop()
            event.receivers = receivers
            event.frame = frame
            event.distances = distances
            event.accept_version = accept_version
        else:
            event = _BatchDelivery(self, receivers, frame, distances,
                                   accept_version)
        self.kernel.call_in(delay, event)

    def _execute_batch_delivery(
        self, receivers: List[Radio], frame: Frame, distances: List[float],
        accept_version: int = -1,
    ) -> None:
        """Deliver one broadcast's arrivals: batch re-check, ordered effects.

        ``accept_version >= 0`` certifies that every receiver accepted at
        scheduling time and that its class vouches acceptance state is
        version-covered; if the medium's version still matches, the
        re-check is provably all-True and is skipped (``mask=None``).
        Any enable/disable or scan start/stop since scheduling bumps the
        version, forcing the full mask — same bytes as a per-receiver
        re-check, minus the redundant reads.
        """
        if accept_version >= 0 and accept_version == self._accept_version:
            self._deliver_masked(receivers, frame, distances, None)
            return
        # One broadcast's receivers share the sender's kind, so the
        # mono-class registry entry for that kind is a homogeneity proof.
        mono = (
            self._mono_class.get(getattr(receivers[0], "kind", None))
            if receivers
            else None
        )
        mask = self._acceptance_mask(receivers, frame, self.kernel.now, mono)
        self._deliver_masked(receivers, frame, distances, mask)

    def _deliver_masked(
        self,
        receivers: List[Radio],
        frame: Frame,
        distances: List[float],
        mask: Optional[List[bool]],
    ) -> None:
        """Run ``_deliver`` side effects over ``mask`` in ascending attach order.

        ``mask=None`` means every receiver is known-accepted (the re-check
        was elided under acceptance-state versioning) — equivalent to an
        all-True mask without materialising one.  ``receivers`` are one
        broadcast's arrivals and therefore share a single kind, which is
        what lets the mono-class registry prove batch homogeneity.
        """
        if not receivers:
            return
        delivered = 0
        if not self._has_mirrors:
            if mask is None or all(mask):
                # Dense beacon rounds: every receiver still accepts at
                # delivery time — no per-item branch, no mirror test, and
                # a mono-class registry dispatches the class's batch
                # delivery loop (one call instead of one per receiver).
                cls = type(receivers[0])
                if self._mono_class.get(getattr(receivers[0], "kind", None)) is cls:
                    cls.deliver_batch(receivers, frame, distances)
                else:
                    for receiver, distance in zip(receivers, distances):
                        receiver._deliver(frame, distance)
                self.frames_delivered += len(receivers)
                return
            for receiver, distance, accepted in zip(receivers, distances, mask):
                if accepted:
                    delivered += 1
                    receiver._deliver(frame, distance)
        else:
            if mask is None:
                mask = [True] * len(receivers)
            cross_shard = 0
            for receiver, distance, accepted in zip(receivers, distances, mask):
                if accepted:
                    delivered += 1
                    if receiver.is_mirror:
                        # A halo mirror heard it: under sharded execution
                        # this delivery belongs to the receiver's owning
                        # shard and is routed there at the next horizon.
                        cross_shard += 1
                    receiver._deliver(frame, distance)
            self.frames_cross_shard += cross_shard
        self.frames_delivered += delivered
        self.frames_dropped += len(receivers) - delivered
