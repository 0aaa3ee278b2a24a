"""Radio base class and the device that hosts radios."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.energy.meter import EnergyMeter
from repro.phy.world import WorldNode
from repro.radio.frame import Frame, RadioKind
from repro.sim.kernel import Kernel

if TYPE_CHECKING:
    from repro.radio.medium import Medium


class Radio:
    """Base class for a simulated radio attached to a device.

    A radio knows its kind, its device (for position and energy), and the
    medium it transmits into.  Each concrete radio (BLE, WiFi, NFC)
    implements its technology's operations and its reception gating: the
    scalar :meth:`_accepts_frame` / :meth:`_deliver`, which define the
    semantics, and the batch :meth:`accepts_mask` the medium runs.
    """

    kind: RadioKind

    #: True only on halo mirror receivers under sharded execution; the
    #: medium uses it to count cross-shard deliveries without isinstance
    #: checks on the hot path.
    is_mirror = False

    #: True on a class whose ``_accepts_frame`` reads only the frame kind
    #: and fields whose every mutation bumps ``Medium._accept_version``
    #: (never the clock).  The medium then shares one acceptance mask per
    #: cell batch and version, and skips the delivery-time re-check of a
    #: batch whose version is unchanged since scheduling.
    accepts_versioned = False

    def __init__(self, device: "Device", medium: "Medium") -> None:
        self.device = device
        self.medium = medium
        self.enabled = False
        self._op_counter = 0
        self._state_listeners = []
        medium.attach(self)

    def add_state_listener(self, listener) -> None:
        """Register ``listener(enabled: bool)`` for power state changes.

        Technology adapters use this to notice their radio being powered
        off underneath them (e.g. by the user or another subsystem) and
        report the availability change on the Omni response queue.
        """
        self._state_listeners.append(listener)

    def _notify_state(self) -> None:
        for listener in list(self._state_listeners):
            listener(self.enabled)

    # -- identity -------------------------------------------------------------

    @property
    def kernel(self) -> Kernel:
        """The simulation kernel shared through the device."""
        return self.device.kernel

    @property
    def meter(self) -> EnergyMeter:
        """The device's energy meter."""
        return self.device.meter

    @property
    def node(self) -> WorldNode:
        """The device's physical node (for positions)."""
        return self.device.node

    @property
    def name(self) -> str:
        """Trace-friendly radio name, e.g. ``tourist-1.wifi``."""
        return f"{self.device.name}.{self.kind.value}"

    def _op_component(self, operation: str) -> str:
        """A unique energy-component name for one radio operation."""
        self._op_counter += 1
        return f"{self.kind.value}.{operation}#{self._op_counter}"

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        """Power the radio on. Subclasses add standby draws as appropriate."""
        changed = not self.enabled
        self.enabled = True
        if changed:
            self.medium._accept_version += 1
            self._notify_state()

    def disable(self) -> None:
        """Power the radio off."""
        changed = self.enabled
        self.enabled = False
        if changed:
            self.medium._accept_version += 1
            self._notify_state()

    # -- reception -----------------------------------------------------------

    def _accepts_frame(self, frame: Frame) -> bool:
        """Whether this radio can currently hear ``frame`` (state gating).

        Each concrete radio defines this scalar reference: its
        :meth:`accepts_mask` must match it element for element, and the
        medium oracle in the tests calls it per candidate.
        """
        raise NotImplementedError

    @classmethod
    def accepts_mask(cls, radios, frame: Frame, now: float):
        """Batch twin of :meth:`_accepts_frame` over homogeneous ``radios``.

        Returns a boolean sequence parallel to ``radios`` whose every
        element equals ``radio._accepts_frame(frame)`` at time ``now`` —
        the scalar method stays the defining reference, exactly like the
        :class:`~repro.phy.propagation.PropagationModel` batch methods.
        Acceptance draws no RNG, so implementations may evaluate in any
        order; only the ``_deliver`` side effects the medium runs over
        the mask are order-sensitive (ascending attach order).
        Implementations take ``now`` as the time authority for any window
        bound (e.g. WiFi monitor windows) rather than reading per-radio
        clocks mid-loop.
        """
        raise NotImplementedError

    def _deliver(self, frame: Frame, distance: float) -> None:
        """Handle a frame the medium decided this radio receives."""
        raise NotImplementedError

    @classmethod
    def deliver_batch(cls, radios, frame: Frame, distances) -> None:
        """Batch twin of :meth:`_deliver` over accepted homogeneous radios.

        Runs the delivery side effects for one broadcast's receivers —
        ``radios`` parallel to ``distances``, already in ascending attach
        order and already past the acceptance mask.  The default is the
        elementwise reference loop, which WiFi and NFC use; BLE inlines its
        ``_deliver`` body to shed half a million method dispatches per
        beacon round, but the observable effects (handler calls, counters,
        RNG draws, and their order) must stay exactly those of calling
        ``_deliver`` per radio — the scalar method remains the defining
        reference, mirroring :meth:`accepts_mask`.
        """
        for radio, distance in zip(radios, distances):
            radio._deliver(frame, distance)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"{type(self).__name__}({self.name}, {state})"


class Device:
    """A physical device: world node + energy meter + a set of radios.

    This is the simulated analogue of one Raspberry Pi in the paper's
    testbed.  Middleware instances (Omni, the baselines) attach to a Device
    and drive its radios.
    """

    def __init__(self, kernel: Kernel, node: WorldNode) -> None:
        self.kernel = kernel
        self.node = node
        self.name = node.name
        self.meter = EnergyMeter(kernel, name=self.name)
        self.radios: Dict[RadioKind, Radio] = {}

    def add_radio(self, radio: Radio) -> Radio:
        """Register ``radio`` under its kind (one radio per kind per device)."""
        if radio.kind in self.radios:
            raise ValueError(f"device {self.name} already has a {radio.kind.value} radio")
        self.radios[radio.kind] = radio
        return radio

    def radio(self, kind: RadioKind) -> Radio:
        """Look up the radio of ``kind``; raises ``KeyError`` if absent."""
        return self.radios[kind]

    def has_radio(self, kind: RadioKind) -> bool:
        """True if the device carries a radio of ``kind``."""
        return kind in self.radios

    def __repr__(self) -> str:
        kinds = ",".join(sorted(kind.value for kind in self.radios))
        return f"Device({self.name!r}, radios=[{kinds}])"
