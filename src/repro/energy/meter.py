"""Per-device energy accounting.

An :class:`EnergyMeter` integrates the device's total current draw over
simulated time.  The total draw at any instant is the sum of named *component*
draws; radio models raise and lower their components around operations (e.g.
``wifi.tx`` at 183.3 mA for the duration of a transmission).

This replaces the paper's USB power meter: where they sampled a physical
device, we integrate the same piecewise-constant signal analytically, which
is exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel
from repro.util.validation import check_non_negative

if TYPE_CHECKING:
    from repro.net.flow_energy import FlowEnergyAccountant

#: Payload format tag for :meth:`EnergyMeter.timeline_payload`.
ENERGY_TIMELINE_FORMAT = "repro.energy.timeline/v1"


class DrawToken:
    """Handle for one active component draw; release to end it."""

    def __init__(self, meter: "EnergyMeter", component: str) -> None:
        self._meter = meter
        self._component = component
        self._released = False

    def release(self) -> None:
        """End this draw. Idempotent."""
        if self._released:
            return
        self._released = True
        self._meter._release(self._component)

    def __enter__(self) -> "DrawToken":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class EnergyMeter:
    """Integrates total device current (mA) over simulated time into mAs."""

    def __init__(self, kernel: Kernel, name: str = "device") -> None:
        self.kernel = kernel
        self.name = name
        self._draws: Dict[str, float] = {}
        self._charge_mas = 0.0
        self._last_update = kernel.now
        self._peak_ma = 0.0
        self._timeline: Optional[List[Tuple[float, str, float]]] = None
        #: The device's flow accountant, made by
        #: :func:`repro.net.flow_energy.accountant_for` on its first flow.
        self.flow_accountant: Optional["FlowEnergyAccountant"] = None

    # -- component draws -----------------------------------------------------

    def set_draw(self, component: str, milliamps: float) -> None:
        """Set the steady draw of ``component``; 0 removes it."""
        check_non_negative("milliamps", milliamps)
        self._integrate()
        if milliamps == 0.0:
            self._draws.pop(component, None)
        else:
            self._draws[component] = milliamps
        if self._timeline is not None:
            self._timeline.append((self.kernel.now, component, milliamps))
        self._peak_ma = max(self._peak_ma, self.current_ma)

    def draw(self, component: str, milliamps: float) -> DrawToken:
        """Begin a draw and return a token; release (or ``with``) to end it.

        Component names for concurrent operations must be unique; radio
        models suffix an operation counter (e.g. ``wifi.tx#42``).
        """
        if component in self._draws:
            raise ValueError(f"component {component!r} already drawing")
        self.set_draw(component, milliamps)
        return DrawToken(self, component)

    def timed_draw(self, component: str, milliamps: float, duration: float) -> None:
        """Begin a draw that auto-releases after ``duration`` seconds."""
        token = self.draw(component, milliamps)
        self.kernel.call_in(duration, token.release)

    def _release(self, component: str) -> None:
        self._integrate()
        self._draws.pop(component, None)
        if self._timeline is not None:
            self._timeline.append((self.kernel.now, component, 0.0))

    # -- timeline (opt-in; feeds the runner's artifact transport) ------------

    def enable_timeline(self) -> None:
        """Start recording every component transition as ``(t, name, mA)``.

        Opt-in: without it the meter stays a pair of floats.  The first
        entries snapshot the components already drawing, so the timeline is
        self-contained from its enable instant.  Idempotent.
        """
        if self._timeline is not None:
            return
        self._timeline = [
            (self.kernel.now, component, milliamps)
            for component, milliamps in self._draws.items()
        ]

    @property
    def timeline_enabled(self) -> bool:
        """True once :meth:`enable_timeline` has been called."""
        return self._timeline is not None

    def timeline_events(self) -> List[Tuple[float, str, float]]:
        """A copy of the recorded transitions (empty if never enabled)."""
        return list(self._timeline or [])

    def timeline_payload(self) -> Dict[str, Any]:
        """The artifact-transport form of the per-component timeline.

        One compact ``(time, component, mA)`` tuple per transition (``mA``
        of 0 means the component stopped drawing) — the piecewise-constant
        signal the meter integrates, reconstructable exactly.
        """
        return {
            "format": ENERGY_TIMELINE_FORMAT,
            "device": self.name,
            "events": self.timeline_events(),
        }

    # -- readings -----------------------------------------------------------

    @property
    def current_ma(self) -> float:
        """Instantaneous total draw in mA."""
        return sum(self._draws.values())

    def total_charge_mas(self) -> float:
        """Cumulative charge in mA·s since meter creation, up to now."""
        self._integrate()
        return self._charge_mas

    def average_ma(self, *, since: "EnergySnapshot") -> float:
        """Average draw (mA) from ``since``, a :meth:`snapshot`, until now.

        A zero-length window degenerates to the instantaneous draw.  The
        paper's draws relative to WiFi standby are
        :attr:`~repro.energy.report.EnergyReport.average_ma_relative`.
        """
        elapsed = self.kernel.now - since.time
        if elapsed <= 0:
            return self.current_ma
        charge = self.total_charge_mas() - since.charge_mas
        return charge / elapsed

    def snapshot(self) -> "EnergySnapshot":
        """Capture (time, charge) for later windowed averages."""
        return EnergySnapshot(self, self.kernel.now, self.total_charge_mas())

    @property
    def peak_ma(self) -> float:
        """Highest instantaneous draw observed since the last peak reset."""
        return self._peak_ma

    def reset_peak(self) -> None:
        """Restart peak tracking from the current instantaneous draw."""
        self._peak_ma = self.current_ma

    def active_components(self) -> Dict[str, float]:
        """A copy of the current component → mA map (for traces and tests)."""
        return dict(self._draws)

    # -- internals --------------------------------------------------------

    def _integrate(self) -> None:
        now = self.kernel.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._charge_mas += self.current_ma * elapsed
            self._last_update = now

    def __repr__(self) -> str:
        return (
            f"EnergyMeter({self.name!r}, now={self.kernel.now:.3f}s, "
            f"current={self.current_ma:.1f}mA)"
        )


class EnergySnapshot:
    """A (time, charge) checkpoint for windowed energy statistics."""

    def __init__(self, meter: EnergyMeter, time: float, charge_mas: float) -> None:
        self._meter = meter
        self.time = time
        self.charge_mas = charge_mas

    def elapsed(self) -> float:
        """Seconds since the snapshot."""
        return self._meter.kernel.now - self.time

    def charge_since(self) -> float:
        """Charge in mAs consumed since the snapshot."""
        return self._meter.total_charge_mas() - self.charge_mas
