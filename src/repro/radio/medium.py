"""The wireless medium: geometry-aware frame delivery between radios.

One :class:`Medium` instance per simulation carries every technology; each
:class:`~repro.radio.frame.RadioKind` has its own propagation model.  The
medium decides *who can hear* a transmission; receiver radios decide what to
do with it (scanning, mesh membership, etc.) via ``_accepts_frame``.

The broadcast pipeline
----------------------

A broadcast runs in four batch stages:

1. **query** — :meth:`Medium._cell_batch` returns every candidate with
   its position as parallel numpy arrays.  :meth:`Medium._kind_arrays`
   positions every radio of the technology and bins it into square cells
   whose side is the model's cutoff (``max_range()``).  A cell's batch is
   every radio in its 5×5-cell window, trimmed to a ``cutoff + 0.75·size``
   disk around the cell centre, in attach order.  The first lookup of a
   stamp gathers only its own cell; the second distinct cell runs one
   numpy pass over every occupied cell (:meth:`Medium._cell_table`), whose
   CSR rows every later lookup of the stamp slices.  A cell's batch is
   built on its first lookup and cached per (technology, cell), so
   same-cell senders share it (``batch_cache_misses`` counts the lookups
   that ran a gather pass, ``batch_cache_hits`` the rest).  Both caches
   and the table are kept per technology and hold while its *stamp*
   does: the attach/move version alone while none of the technology's
   attached radios can move (``max_speed() == 0.0``, a constant position
   by the :class:`~repro.phy.mobility.MobilityModel` contract), else
   (timestamp, version); whether one can is re-read only when the version
   changes.  So a scene of fixed devices positions and bins them once,
   not once per instant, and a scene whose every sender fires at one
   instant pays one candidate pass for it.  A model with no cutoff gets
   one batch holding every radio of the technology.
2. **probability** — :meth:`Medium._delivery_mask` computes distances,
   delivery probabilities, and the RNG delivery rolls in one numpy pass.
3. **acceptance** — :meth:`Medium._acceptance_mask` asks each concrete
   radio class for one ``accepts_mask`` over its receivers instead of N
   virtual ``_accepts_frame`` calls; acceptance draws no RNG, so the
   mask order is free and only the delivery side effects below are
   order-sensitive.
4. **delivery** — all of a transmission's arrivals are scheduled as a
   single :class:`_BatchDelivery` event whose delivery-time
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
#: contiguous, so a column's y-range is a single sorted-array slice.  The
#: packing is exact only while every cell index, and the 5×5 neighbourhood
#: a gather reaches around it, stays inside ±2**31: ``_kind_arrays``
#: rejects a radio whose ``|floor(x / size)|`` or ``|floor(y / size)|``
#: exceeds ``_CELL_LIMIT`` (about ±6.4e10 m for BLE's 30 m cells, ±2.1e8 m
#: for NFC's 0.1 m).
_CELL_STRIDE = 1 << 32
_CELL_LIMIT = (1 << 31) - 3

#: A cell's 5×5 window as packed-id offsets: per x-column ``cx - 2 .. cx +
#: 2``, the first five bound ``cy - 2`` from below and the last five bound
#: ``cy + 2`` from above (``cy + 3``, searched from the left).  A cell
#: within ``_CELL_LIMIT`` keeps every sum inside int64.
_WINDOW = np.concatenate((
    np.arange(-2, 3, dtype=np.int64) * _CELL_STRIDE - 2,
    np.arange(-2, 3, dtype=np.int64) * _CELL_STRIDE + 3,
))

#: Candidates per block of the table pass, before the trim: bounds the
#: pass's per-candidate work arrays at under a MB however dense the scene.
_TABLE_BLOCK = 1 << 13


def _can_move(node: WorldNode) -> bool:
    """Whether ``node``'s position may change with time.

    Only a ``max_speed()`` of exactly 0.0 pins a position (the
    :class:`~repro.phy.mobility.MobilityModel` contract); the base class's
    ``inf`` — a model that states no bound — counts as a mover.
    """
    return not node.mobility.max_speed() == 0.0


class _MIXED:
    """Sentinel marking a RadioKind with more than one concrete class.

    A class (not an instance) so the ``Medium._mono_class`` values stay
    type-annotated; it can never equal ``type(radio)`` for any radio.
    A mixed kind's batches are never version-covered.
    """

    accepts_versioned = False


class _BatchDelivery:
    """All of one broadcast's arrivals as a single scheduled event.

    The broadcast schedules one kernel event per transmission instead of
    one per receiver.  Arrival semantics are those of per-receiver events:
    the same per-receiver re-check runs at the same instant — as one
    acceptance mask per batch — and ``_deliver`` side effects run in
    ascending attach order, exactly the order per-receiver events
    (scheduled back-to-back, hence contiguous in the kernel's
    same-timestamp FIFO) would run in.
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
        self.medium._execute_batch_delivery(self.receivers, self.frame,
                                            self.distances, self.accept_version)


class _CellBatch:
    """Cached candidate arrays for every sender in one grid cell.

    One row of a gather (see ``Medium._gather``), built on the cell's
    first lookup: ``radios`` is attach-order sorted; ``xs``/``ys`` are the
    matching float64 coordinates, views into the gather's flat arrays, and
    ``index`` the matching ascending positions in the per-stamp arrays
    (see ``Medium._kind_arrays``), binary-searched to locate the sender.
    A batch lives as long as its technology's stamp (see
    ``Medium._ensure_stamp``): one instant when the technology has a
    mover, every instant up to the next attach, detach or mobility change
    when it has none.
    ``accept_cache`` memoises the batch-wide acceptance pre-filter for
    version-covered radio classes as ``(accept_version, frame_kind, mask,
    all_true)`` — every same-cell sender at one stamp shares one mask
    instead of recomputing it per broadcast.  ``scratch`` holds the
    batch-sized work buffers of :meth:`Medium._delivery_mask` (two
    float64, one bool), so the per-broadcast array pass allocates nothing.
    A stamp, and so the mask, may span instants.  That is sound
    because a version-covered class's mask reads only version-covered
    state and the frame kind, never ``now`` (BLE; WiFi's monitor window
    reads ``now``, and WiFi is not version-covered).

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
    ) -> None:
        self.kernel = kernel
        self.world = world
        self.rng = kernel.rng.child("medium")
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
        #: Candidate-batch lookups, alongside the frame counters: a miss is
        #: a lookup that ran a gather pass (its own cell, or the stamp's
        #: table of every occupied cell), a hit one served without — from
        #: a cached batch or a row of the stamp's table.
        self.batch_cache_hits = 0
        self.batch_cache_misses = 0
        self._attach_seq = 0
        # Per-kind, per-cell candidate batches — see _cell_batch — per-kind
        # position arrays over every attached radio, cell-binned for the
        # gather — see _kind_arrays — and per-kind candidate tables of
        # every occupied cell — see _cell_table.  A kind's three caches
        # hold while its stamp does (see _ensure_stamp): (None, version)
        # while none of its radios can move, else (timestamp, version).
        # Every attach, detach and mobility change bumps the version.
        self._batch_cache: Dict[RadioKind, Dict[Optional[Tuple[int, int]],
                                                _CellBatch]] = {
            kind: {} for kind in RadioKind
        }
        self._stamp_arrays: Dict[RadioKind, tuple] = {}
        self._cell_tables: Dict[RadioKind, tuple] = {}
        self._stamps: Dict[RadioKind, Tuple[Optional[float], int]] = {
            kind: (None, -1) for kind in RadioKind
        }
        self._batch_version = 0
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
        # Radio.accepts_versioned) skips the delivery-time re-check
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

    def _ensure_stamp(self, kind: RadioKind) -> float:
        """Roll ``kind``'s caches to its current stamp; return the clock.

        A kind's candidate batches and position arrays share one stamp:
        ``(None, version)`` while none of its attached radios can move —
        their positions are constant, so only an attach, detach or
        mobility change (each bumps the version) can stale them — and
        ``(now, version)`` while one can, so a clock advance stales them
        too.  Whether one can move changes only with the version, so it is
        re-read only then.  A changed stamp drops every cache of that kind
        wholesale: batches, position arrays and candidate table.
        """
        now = self.kernel.now
        stamped_at, version = self._stamps[kind]
        if version == self._batch_version:
            if stamped_at is None or stamped_at == now:
                return now
            moving = True
        else:
            moving = any(_can_move(radio.node) for radio in self._radios[kind])
        self._batch_cache[kind].clear()
        self._stamp_arrays.pop(kind, None)
        self._cell_tables.pop(kind, None)
        self._stamps[kind] = (now if moving else None, self._batch_version)
        return now

    def _kind_arrays(self, kind: RadioKind, now: float,
                     size: Optional[float]):
        """Per-stamp struct-of-arrays over every attached radio of ``kind``.

        One position pass per stamp (``position_at(now)`` — the same pure
        function, hence the same float64s, ``node.position`` reads) feeds
        every batch of the stamp; for a kind with no mover the stamp spans
        instants, and the positions it read stay exact because none of
        them can change.  Radios are listed in attach order, so
        index order *is* ascending ``_medium_seq`` order.  Returns
        ``(radios, xs, ys, index_of, order, sorted_cid)`` where
        ``index_of`` maps ``_medium_seq`` back to array index.  With a
        cell ``size``, ``order`` sorts radios by packed cell id (stable,
        so attach order survives within a cell) and ``sorted_cid`` is the
        matching sorted id array — together they make a cell's 5×5 window
        five slices found by binary search (see :meth:`_gather`); without
        one (unbounded model) both are None.  Raises ValueError for a
        radio whose cell index lies beyond ``_CELL_LIMIT`` (or is not
        finite), where the packed id would wrap.  Call through
        :meth:`_ensure_stamp` first.
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
            cell_x = np.floor(xs / size)
            cell_y = np.floor(ys / size)
            inside = (np.abs(cell_x) <= _CELL_LIMIT) & (
                np.abs(cell_y) <= _CELL_LIMIT
            )
            if not inside.all():
                bad = int(np.argmin(inside))
                raise ValueError(
                    f"radio {radios[bad].name!r} is at ({float(xs[bad])!r}, "
                    f"{float(ys[bad])!r}), beyond the medium's coordinate "
                    f"limit for {kind.value}: |floor(coordinate / {size!r})| "
                    f"must not exceed {_CELL_LIMIT} (about "
                    f"{_CELL_LIMIT * size:.3g} m)"
                )
            cid = (
                cell_x.astype(np.int64) * _CELL_STRIDE
                + cell_y.astype(np.int64)
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

        Cells are ``cutoff`` meters square.  One batch serves every
        same-cell sender while ``kind``'s stamp holds (see
        :meth:`_ensure_stamp`); it is a row of a :meth:`_gather`.  The
        stamp's first lookup gathers only its own cell.  Its second
        distinct cell builds the table of every occupied cell
        (:meth:`_cell_table`) and every later lookup slices it, so a stamp
        that serves one cell — a mover scene with one sender per instant —
        never pays for a pass over the whole scene, and a stamp that serves
        thousands pays for one.  A cell no radio occupies (an origin off
        every attached radio) is gathered on its own.  A ``cutoff`` of
        None (unbounded model, or a zero range that gives no cell size)
        means one batch of every radio of ``kind``.  Invalidated whenever a
        radio attaches, detaches or changes mobility, and — only while one
        of ``kind``'s radios can move — whenever the clock advances.
        """
        now = self._ensure_stamp(kind)
        size = cutoff
        cell = (
            None if size is None
            else (math.floor(origin.x / size), math.floor(origin.y / size))
        )
        cache = self._batch_cache[kind]
        batch = cache.get(cell)
        if batch is not None:
            self.batch_cache_hits += 1
            return batch
        arrays = self._kind_arrays(kind, now, size)
        radios = arrays[0]
        if cell is None:
            self.batch_cache_misses += 1
            batch = _CellBatch(radios, arrays[1], arrays[2], range(len(radios)))
            cache[cell] = batch
            return batch
        cid = cell[0] * _CELL_STRIDE + cell[1]
        table = self._cell_tables.get(kind)
        # A table needs two occupied cells, hence two radios.
        gathered = table is None and bool(cache) and len(radios) > 1
        if gathered:
            table = self._cell_tables[kind] = self._cell_table(arrays, size)
        row = -1 if table is None else table[0].get(cid, -1)
        if row < 0:
            bounds = np.searchsorted(arrays[5], cid + _WINDOW).reshape(1, -1)
            _, index_all, xs, ys = self._gather(arrays, cell[0], cell[1],
                                                bounds, size)
            start, stop = 0, len(index_all)
            gathered = True
        else:
            _, indptr, index_all, xs, ys = table
            start, stop = indptr[row], indptr[row + 1]
        if gathered:
            self.batch_cache_misses += 1
        else:
            self.batch_cache_hits += 1
        index = index_all[start:stop].tolist()
        batch = _CellBatch([radios[i] for i in index], xs[start:stop],
                           ys[start:stop], index)
        cache[cell] = batch
        return batch

    def _cell_table(self, arrays: tuple, size: float) -> tuple:
        """The stamp's candidate table: a :meth:`_gather` of every occupied cell.

        Returns ``(rows, indptr, index, xs, ys)``: ``rows`` maps a packed
        cell id to its row, and row ``r`` is ``index[indptr[r]:indptr[r +
        1]]`` with its coordinates at the same slice of ``xs``/``ys``.  The
        occupied cells are the distinct ids of the stamp's cell-sorted
        arrays (:meth:`_kind_arrays`).  They are gathered in blocks of about
        ``_TABLE_BLOCK`` candidates before the trim, so the pass's transient
        arrays stay small at any density.
        """
        sorted_cid = arrays[5]
        first = np.empty(len(sorted_cid), dtype=bool)
        first[0] = True
        np.not_equal(sorted_cid[1:], sorted_cid[:-1], out=first[1:])
        cells = sorted_cid[first]
        bounds = np.searchsorted(sorted_cid, cells.reshape(-1, 1) + _WINDOW)
        # Unpack each id, cx·2**32 + cy with |cy| < 2**31.
        cell_x = (cells + (1 << 31)) >> 32
        cell_y = cells - (cell_x << 32)
        ends = np.cumsum((bounds[:, 5:] - bounds[:, :5]).sum(axis=1))
        edges = np.searchsorted(
            ends, np.arange(0, ends[-1], _TABLE_BLOCK), side="right"
        ).tolist()
        edges.append(len(cells))
        parts = [
            self._gather(arrays, cell_x[start:stop], cell_y[start:stop],
                         bounds[start:stop], size)
            for start, stop in zip(edges, edges[1:]) if start < stop
        ]
        if len(parts) == 1:
            counts, index, xs, ys = parts[0]
        else:
            counts, index, xs, ys = (
                np.concatenate([part[i] for part in parts]) for i in range(4)
            )
        indptr = [0]
        indptr.extend(np.cumsum(counts).tolist())
        rows = dict(zip(cells.tolist(), range(len(cells))))
        return rows, indptr, index, xs, ys

    def _gather(self, arrays: tuple, cell_x, cell_y, bounds,
                size: float) -> tuple:
        """Candidate rows of the cells ``(cell_x, cell_y)`` in one numpy pass.

        The cell indices are int64 arrays, or ints for a single cell.
        ``bounds`` is ``_WINDOW`` around each cell's packed id, searched in
        the stamp's sorted ids: the cell's 5×5-cell window as five column
        slices of the cell-sorted order.  Every cell whose box meets the
        disk the cell's senders can reach lies in it: offset d qualifies
        iff (d - 0.5)·size ≤ cutoff + 0.5·size, so d ≤ 2.  Row ``r`` holds
        every radio of cell ``r``'s window within the disk that provably
        covers every origin in the cell — ``cutoff + 0.75·size`` from its
        centre, a safe margin over the cell half-diagonal (``size·√2/2``) —
        in ascending array index, which is ascending attach order.  Every
        row takes the same float operations, so a batch's bytes do not
        depend on how many cells its pass gathered.  Returns ``(counts,
        index, xs, ys)``: each row's length, then the rows back to back
        with their coordinates.
        """
        _, xs_all, ys_all, _, order, _ = arrays
        lo = bounds[:, :5].ravel()
        lengths = bounds[:, 5:].ravel() - lo
        ends = np.cumsum(lengths)
        # Every column slice's positions in the cell-sorted order.
        index = order[
            np.arange(ends[-1]) + np.repeat(lo - ends + lengths, lengths)
        ]
        centre_x = (cell_x + 0.5) * size
        centre_y = (cell_y + 0.5) * size
        count = len(bounds)
        if count == 1:
            index.sort()  # index order == ascending attach order
        else:
            # Sort every row at once on a row-major key.
            row = np.repeat(np.arange(count),
                            lengths.reshape(count, 5).sum(axis=1))
            stride = len(order)
            key = row * stride + index
            key.sort()
            row = key // stride
            index = key - row * stride
            centre_x = centre_x[row]
            centre_y = centre_y[row]
        xs = xs_all[index]
        ys = ys_all[index]
        reach = size + 0.75 * size
        dxc = xs - centre_x
        dyc = ys - centre_y
        near = (dxc * dxc + dyc * dyc) <= reach * reach
        if not near.all():
            index = index[near]
            xs = xs[near]
            ys = ys[near]
            if count > 1:
                row = row[near]
        if count == 1:
            return [len(index)], index, xs, ys
        return np.bincount(row, minlength=count), index, xs, ys

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
        now = self._ensure_stamp(kind)
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
        mono = self._mono_class[kind]
        if mono.accepts_versioned:
            # Version-covered mono-class kind (the common case): one
            # batch-wide pre-filter mask per (batch, acceptance version,
            # frame kind) is shared by every same-cell sender while the
            # batch lives, and the delivery-time re-check is elided while
            # the version holds (see _execute_batch_delivery).
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
        order.  Acceptance draws no RNG, so grouping cannot perturb any
        seed stream; the mask is elementwise identical to per-receiver
        ``_accepts_frame``.

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
            mask = cls.accepts_mask(radios, frame, now)
            return mask if type(mask) is list else [bool(hit) for hit in mask]
        groups: Dict[type, List[int]] = {}
        for pos, radio in enumerate(radios):
            groups.setdefault(type(radio), []).append(pos)
        mask = [False] * len(radios)
        for cls, positions in groups.items():
            group = [radios[pos] for pos in positions]
            submask = cls.accepts_mask(group, frame, now)
            for pos, hit in zip(positions, submask):
                mask[pos] = bool(hit)
        return mask

    # -- delivery stage (batch events + their execution seams) ----------------

    def _schedule_batch(
        self,
        receivers: List[Radio],
        frame: Frame,
        distances: List[float],
        delay: float,
        accept_version: int = -1,
    ) -> None:
        """Schedule one broadcast's arrivals as a single batch event."""
        self.kernel.call_in(
            delay,
            _BatchDelivery(self, receivers, frame, distances, accept_version),
        )

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
        mono = self._mono_class.get(receivers[0].kind) if receivers else None
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
                if self._mono_class.get(receivers[0].kind) is cls:
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
