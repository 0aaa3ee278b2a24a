"""Mobility models: where is a device at time t?

A mobility model is a pure function of time, which keeps the world's range
queries exact at any instant without discretising motion into events.  The
PRoPHET ferry scenario (paper Fig 7) uses :class:`WaypointPath`; ad-hoc
scenarios may use :class:`RandomWaypoint`.

Every model also exposes :meth:`MobilityModel.max_displacement`, a
worst-case bound on how far the device can travel inside a time window.
The bound is what makes *moving* devices spatially indexable: the
time-aware grid buckets a mover at its epoch-start position and inflates
query radii by the bound, so range queries stay exact supersets without
re-indexing the mover on every tick (see :mod:`repro.phy.index`).

The sharded simulator (:mod:`repro.sim.sharded`) leans on the same bound
as conservative-PDES *lookahead*: a node whose horizon-clamped
displacement cannot reach a neighboring shard's halo cannot affect that
shard before the next synchronization point.  :meth:`MobilityModel.max_speed`
is the time-independent version — an instantaneous speed cap the shard
planner multiplies by the horizon length to size halo bands without
querying every window.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.phy.geometry import Position
from repro.util.rng import SeededRng
from repro.util.validation import check_non_negative, check_positive


class MobilityModel:
    """Interface: position as a function of simulation time."""

    def position_at(self, time: float) -> Position:
        """The device's position at simulated ``time`` seconds."""
        raise NotImplementedError

    @classmethod
    def positions_at(cls, models: Sequence["MobilityModel"], time: float):
        """Batch twin of :meth:`position_at` over homogeneous ``models``.

        Returns parallel coordinate lists ``(xs, ys)`` with ``(xs[i],
        ys[i])`` **bit-identical** to ``models[i].position_at(time)`` —
        the scalar method stays the defining reference, like the
        :class:`~repro.phy.propagation.PropagationModel` batch methods.
        The default delegates elementwise, so stateful models (e.g.
        :class:`RandomWaypoint`'s lazy trajectory) and third-party models
        that only implement the scalar surface inherit a correct batch
        form; closed-form models override with one numpy pass built from
        correctly-rounded operations only.
        """
        xs: List[float] = []
        ys: List[float] = []
        for model in models:
            position = model.position_at(time)
            xs.append(position.x)
            ys.append(position.y)
        return xs, ys

    def max_displacement(self, t0: float, t1: float) -> float:
        """Upper bound on distance travelled anywhere inside ``[t0, t1]``.

        Formally: for any ``a, b`` in ``[t0, t1]``,
        ``position_at(a).distance_to(position_at(b)) <= max_displacement(t0, t1)``.

        The base class cannot bound an arbitrary model and returns
        ``math.inf``, which makes spatial indexes fall back to scanning the
        device linearly — always correct, never fast.  Subclasses with
        bounded speed should override.
        """
        return math.inf

    def max_speed(self) -> float:
        """Upper bound on the model's instantaneous speed, ever.

        For any window, ``max_displacement(t0, t1) <= max_speed() * (t1 -
        t0)`` must hold.  The sharded simulator uses this to clamp
        per-horizon displacement queries: ``max_speed() * horizon`` bounds
        how far *any* conforming node moves between two synchronization
        points, independent of which window is asked about.  The base class
        returns ``math.inf`` — such models cannot participate in sharded
        partitioning (they can teleport across shard boundaries).

        ``0.0`` promises a constant position: ``position_at`` returns the
        same point at every time.  The radio medium
        (:class:`~repro.radio.medium.Medium`) is the second consumer of
        that promise: while every radio of a technology sits on such a
        model it positions and bins them once per attach/move, not once
        per instant.
        """
        return math.inf

    def displacement_within(self, t0: float, t1: float) -> float:
        """Horizon-clamped displacement: the tighter of the two bounds.

        ``max_displacement`` can be loose for models that only track path
        length, and ``max_speed() * window`` can be loose for models that
        pause; the min of both is always a valid bound for ``[t0, t1]``.
        """
        window = max(0.0, t1 - t0)
        return min(self.max_displacement(t0, t1), self.max_speed() * window)


@dataclass(frozen=True)
class Static(MobilityModel):
    """A device that never moves."""

    position: Position

    def position_at(self, time: float) -> Position:
        return self.position

    def max_displacement(self, t0: float, t1: float) -> float:
        return 0.0

    def max_speed(self) -> float:
        return 0.0


class Linear(MobilityModel):
    """Constant-velocity straight-line motion from a start position."""

    def __init__(self, start: Position, velocity: Tuple[float, float],
                 start_time: float = 0.0) -> None:
        self.start = start
        self.velocity = velocity
        self.start_time = start_time
        self._speed = math.hypot(velocity[0], velocity[1])

    def position_at(self, time: float) -> Position:
        elapsed = max(0.0, time - self.start_time)
        return self.start.translated(self.velocity[0] * elapsed,
                                     self.velocity[1] * elapsed)

    @classmethod
    def positions_at(cls, models: Sequence["Linear"], time: float):
        if cls.position_at is not Linear.position_at:
            # A subclass redefined the scalar reference without a batch
            # twin — delegate elementwise so the two can never disagree.
            return MobilityModel.positions_at.__func__(cls, models, time)
        count = len(models)
        starts = np.fromiter(
            (m.start_time for m in models), dtype=np.float64, count=count
        )
        # max(0, t - t0), then start + v * elapsed: subtraction, maximum,
        # multiplication, and addition are all correctly rounded in both
        # numpy and scalar Python, so the batch is bit-identical to
        # per-model position_at.
        elapsed = np.maximum(0.0, time - starts)
        xs = np.fromiter(
            (m.start.x for m in models), dtype=np.float64, count=count
        ) + np.fromiter(
            (m.velocity[0] for m in models), dtype=np.float64, count=count
        ) * elapsed
        ys = np.fromiter(
            (m.start.y for m in models), dtype=np.float64, count=count
        ) + np.fromiter(
            (m.velocity[1] for m in models), dtype=np.float64, count=count
        ) * elapsed
        return xs.tolist(), ys.tolist()

    def max_displacement(self, t0: float, t1: float) -> float:
        # Motion only happens after start_time; clamp the window to it.
        moving = max(0.0, t1 - self.start_time) - max(0.0, t0 - self.start_time)
        if moving <= 0.0:
            return 0.0
        return self._speed * moving

    def max_speed(self) -> float:
        return self._speed


class WaypointPath(MobilityModel):
    """Piecewise-linear motion through timed waypoints.

    ``waypoints`` is a sequence of ``(time, Position)`` pairs sorted by time.
    Before the first waypoint the device sits at the first position; after the
    last it sits at the last.  This is the workhorse for scripted scenarios
    like the data ferry in the PRoPHET experiment.

    Lookups bisect a precomputed time array instead of scanning the
    waypoint list — ``position_at`` sits on the hot path of every range
    query over a mobile node, and ferry scripts can carry many waypoints.
    """

    def __init__(self, waypoints: Sequence[Tuple[float, Position]]) -> None:
        if not waypoints:
            raise ValueError("WaypointPath requires at least one waypoint")
        times = [t for t, _ in waypoints]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("waypoints must be sorted by time")
        self.waypoints: List[Tuple[float, Position]] = list(waypoints)
        self._times: List[float] = times
        # Cumulative along-path distance at each waypoint: the exact length
        # of track covered up to that instant, which bounds displacement
        # over any sub-window (teleports on zero-duration segments count).
        lengths = [0.0]
        top_speed = 0.0
        for (t0, p0), (t1, p1) in zip(self.waypoints, self.waypoints[1:]):
            segment = p0.distance_to(p1)
            lengths.append(lengths[-1] + segment)
            if segment > 0.0:
                # A zero-duration segment is a teleport: unbounded speed.
                top_speed = (math.inf if t1 <= t0
                             else max(top_speed, segment / (t1 - t0)))
        self._cum_lengths: List[float] = lengths
        self._max_speed = top_speed

    def position_at(self, time: float) -> Position:
        times = self._times
        if time <= times[0]:
            return self.waypoints[0][1]
        if time > times[-1]:
            return self.waypoints[-1][1]
        # First index with times[i] >= time; times[i-1] < time, so the
        # segment is non-degenerate and the pre-jump position wins at the
        # shared instant of a zero-duration segment (same semantics as the
        # old linear scan).
        i = bisect_left(times, time)
        t0, p0 = self.waypoints[i - 1]
        t1, p1 = self.waypoints[i]
        return p0.lerp(p1, (time - t0) / (t1 - t0))

    def _path_length_until(self, time: float) -> float:
        times = self._times
        if time <= times[0]:
            return 0.0
        if time >= times[-1]:
            return self._cum_lengths[-1]
        i = bisect_left(times, time)
        t0, t1 = times[i - 1], times[i]
        segment = self._cum_lengths[i] - self._cum_lengths[i - 1]
        return self._cum_lengths[i - 1] + segment * (time - t0) / (t1 - t0)

    def max_displacement(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        return self._path_length_until(t1) - self._path_length_until(t0)

    def max_speed(self) -> float:
        return self._max_speed


class RandomWaypoint(MobilityModel):
    """The classic random-waypoint model inside a rectangular arena.

    The full trajectory is generated lazily but deterministically from the
    seeded RNG, so ``position_at`` is a pure function of time for a given
    model instance.
    """

    def __init__(
        self,
        rng: SeededRng,
        width: float,
        height: float,
        speed: float,
        pause: float = 0.0,
        start: Position = None,
    ) -> None:
        check_positive("width", width)
        check_positive("height", height)
        check_positive("speed", speed)
        check_non_negative("pause", pause)
        self._rng = rng
        self.width = width
        self.height = height
        self.speed = speed
        self.pause = pause
        first = start if start is not None else self._random_point()
        # Trajectory is a list of (arrival_time, position); motion between
        # consecutive entries is linear, with `pause` dwell at each point.
        # `_times` mirrors the arrival times for bisection.
        self._trajectory: List[Tuple[float, Position]] = [(0.0, first)]
        self._times: List[float] = [0.0]

    def _random_point(self) -> Position:
        return Position(self._rng.uniform(0.0, self.width),
                        self._rng.uniform(0.0, self.height))

    def _extend_until(self, time: float) -> None:
        while self._trajectory[-1][0] + self.pause < time:
            depart_time = self._trajectory[-1][0] + self.pause
            here = self._trajectory[-1][1]
            target = self._random_point()
            travel = here.distance_to(target) / self.speed
            self._trajectory.append((depart_time + travel, target))
            self._times.append(depart_time + travel)

    def position_at(self, time: float) -> Position:
        if time <= 0.0:
            return self._trajectory[0][1]
        self._extend_until(time)
        trajectory = self._trajectory
        times = self._times
        # First arrival at or after `time`; every earlier leg is fully in
        # the past (its arrival is strictly before `time`), so the device
        # is dwelling at — or travelling from — waypoint i-1.
        i = bisect_left(times, time)
        if i >= len(times):
            return trajectory[-1][1]
        t0, p0 = trajectory[i - 1]
        depart = t0 + self.pause
        if time <= depart:
            return p0
        t1, p1 = trajectory[i]
        return p0.lerp(p1, (time - depart) / (t1 - depart))

    def max_displacement(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        # The speed cap bounds travel (pauses only reduce it), and the
        # arena diagonal bounds any two positions regardless of window.
        return min(self.speed * (t1 - t0), math.hypot(self.width, self.height))

    def max_speed(self) -> float:
        return self.speed


def positions_for(
    models: Sequence[MobilityModel], time: float
) -> Tuple[List[float], List[float]]:
    """Coordinates of a *heterogeneous* model list at ``time``.

    Groups ``models`` by concrete class, asks each class for one
    :meth:`MobilityModel.positions_at` batch, and scatters the results
    back into input order — ``(xs[i], ys[i])`` is bit-identical to
    ``models[i].position_at(time)``.  This is the grouping shim the
    rebucketing path uses so closed-form models (e.g. :class:`Linear`)
    vectorize while stateful ones fall through to their scalar reference.
    """
    groups: dict = {}
    for index, model in enumerate(models):
        groups.setdefault(type(model), []).append(index)
    if len(groups) == 1:
        (cls,) = groups
        xs, ys = cls.positions_at(models, time)
        return list(xs), list(ys)
    xs = [0.0] * len(models)
    ys = [0.0] * len(models)
    for cls, indices in groups.items():
        group = [models[i] for i in indices]
        group_xs, group_ys = cls.positions_at(group, time)
        for i, x, y in zip(indices, group_xs, group_ys):
            xs[i] = x
            ys[i] = y
    return xs, ys
