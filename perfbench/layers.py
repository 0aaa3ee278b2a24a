"""Layer instrumentation: class-level wrappers around public functions.

:class:`Instrumentation` replaces the public functions listed in
:data:`INSTRUMENTED` on their classes (or, for ``run_sharded``, its module)
with wrappers that record one span per call (see :mod:`perfbench.spans`),
and restores the originals on :meth:`Instrumentation.uninstall`.  Nothing
private is wrapped or overridden.  Two public scheduling entry points also
wrap their callback argument — ``EventScheduler.schedule_at`` and
``Kernel.every`` — so the time an event callback runs is charged to the
layer whose module defines it (span name ``<layer>|event:<qualname>``)
instead of to the scheduler.  Process bodies resumed by
``repro.sim.process`` have no such entry point, so their time counts as
``sim``.

:class:`Tally` sums span sets into the ``per_layer`` metrics of
``BENCHMARK.json`` and the rows of the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
from types import FunctionType
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.spans import UNATTRIBUTED, SpanSet, Tracer, clock

#: Every public function a class defines itself (properties excluded).
PUBLIC = None

#: (layer, module, class, functions) — ``PUBLIC`` wraps every public one;
#: a class of ``None`` wraps module-level functions.
INSTRUMENTED: List[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]]] = [
    ("sim", "repro.sim.scheduler", "EventScheduler",
     ("step_batch", "step", "schedule_at")),
    ("sim", "repro.sim.kernel", "Kernel", ("run_until", "every")),
    ("radio.medium", "repro.radio.medium", "Medium",
     ("broadcast", "attach", "detach")),
    ("radio", "repro.radio.base", "Radio", PUBLIC),
    ("radio", "repro.radio.ble", "BleRadio", PUBLIC),
    ("radio", "repro.radio.wifi", "WifiRadio", PUBLIC),
    ("radio", "repro.radio.nfc", "NfcRadio", PUBLIC),
    ("radio", "repro.sim.sharded.shard", "MirrorRadio", ("accepts_mask",)),
    ("phy.mobility", "repro.phy.mobility", "MobilityModel",
     ("position_at", "positions_at")),
    ("phy.mobility", "repro.phy.mobility", "Static", ("position_at",)),
    ("phy.mobility", "repro.phy.mobility", "Linear",
     ("position_at", "positions_at")),
    ("phy.mobility", "repro.phy.mobility", "WaypointPath", ("position_at",)),
    ("phy.mobility", "repro.phy.mobility", "RandomWaypoint", ("position_at",)),
    ("phy.index", "repro.phy.index", "UniformGridIndex",
     ("insert", "insert_batch", "update", "remove", "query", "query_arrays")),
    ("phy.index", "repro.phy.index", "TimeAwareGridIndex",
     ("insert", "update", "remove", "query", "query_arrays")),
    ("phy.propagation", "repro.phy.propagation", "PropagationModel",
     ("delivery_probabilities", "in_range_mask")),
    ("phy.propagation", "repro.phy.propagation", "UnitDisk",
     ("delivery_probabilities", "in_range_mask")),
    ("phy.propagation", "repro.phy.propagation", "SoftDisk",
     ("delivery_probabilities", "in_range_mask")),
    ("phy.propagation", "repro.phy.propagation", "LogDistance",
     ("delivery_probabilities", "in_range_mask")),
    ("energy", "repro.energy.meter", "EnergyMeter",
     ("set_draw", "draw", "timed_draw")),
    ("net", "repro.net.channel", "FluidChannel", ("start_flow",)),
    ("net", "repro.net.channel", "FluidFlow", ("abort",)),
    ("net", "repro.net.flow_energy", "FlowEnergyAccountant", ("set_rate",)),
    ("comm", "repro.core.tech", "TechnologyAdapter", PUBLIC),
    ("comm", "repro.comm.ble_tech", "BleBeaconTech", PUBLIC),
    ("comm", "repro.comm.nfc_tech", "NfcTapTech", PUBLIC),
    ("comm", "repro.comm.wifi_multicast_tech", "WifiMulticastTech", PUBLIC),
    ("comm", "repro.comm.wifi_tcp_tech", "WifiTcpTech", PUBLIC),
    ("core", "repro.core.manager", "OmniManager", PUBLIC),
    ("core", "repro.core.beacon", "BeaconService", PUBLIC),
    ("apps", "repro.apps.transport", "D2DTransport", PUBLIC),
    ("apps", "repro.apps.transport", "OmniTransport", PUBLIC),
    ("apps", "repro.apps.disseminate", "DisseminateNode", PUBLIC),
    ("apps", "repro.apps.prophet", "ProphetNode", PUBLIC),
    ("apps", "repro.apps.tourism", "LandmarkBeacon", PUBLIC),
    ("apps", "repro.apps.tourism", "TourGuide", PUBLIC),
    ("apps", "repro.apps.tourism", "TouristApp", PUBLIC),
    ("apps", "repro.baselines.art", "SaSystem", PUBLIC),
    ("apps", "repro.baselines.practice", "SpBleSystem", PUBLIC),
    ("apps", "repro.baselines.practice", "SpWifiSystem", PUBLIC),
    ("apps", "repro.baselines.common", "BleDiscovery", PUBLIC),
    ("apps", "repro.baselines.common", "WifiUnicastPath", PUBLIC),
    ("sim.sharded", "repro.sim.sharded.shard", "ShardRuntime",
     ("horizon_packet", "apply_inbound", "schedule_window", "run_window")),
    # The coordinator: forks the shard workers, relays their barriers and
    # merges their logs, so its process spends the whole run in here.
    ("sim.sharded", "repro.sim.sharded", None, ("run_sharded",)),
]

#: What a span's ``size`` holds, per function name: the int return value,
#: the length of the first argument after ``self``/``cls``, or the length
#: of the return value.
SIZES: Dict[str, str] = {
    "step_batch": "ret",
    "step": "ret",
    "broadcast": "ret",
    "accepts_mask": "arg",
    "deliver_batch": "arg",
    "positions_at": "arg",
    "query": "len_ret",
    "query_arrays": "len_ret",
}

#: Module prefix -> layer, for event callbacks; the longest prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.sharded", "sim.sharded"),
    ("repro.sim", "sim"),
    ("repro.radio.medium", "radio.medium"),
    ("repro.radio", "radio"),
    ("repro.phy.mobility", "phy.mobility"),
    ("repro.phy.index", "phy.index"),
    ("repro.phy.propagation", "phy.propagation"),
    ("repro.phy", "phy"),
    ("repro.energy", "energy"),
    ("repro.net", "net"),
    ("repro.comm", "comm"),
    ("repro.core", "core"),
    ("repro.apps", "apps"),
    ("repro.baselines", "apps"),
    ("repro.experiments", "experiments"),
    ("perfbench", "harness"),
)

#: Radio calls that change acceptance state (``radio.state_changes``).
STATE_CHANGES = frozenset(
    ("enable", "disable", "start_scanning", "stop_scanning", "join", "leave")
)

#: ``Medium`` counters read after each traced unit.
MEDIUM_COUNTERS = (
    "frames_sent", "frames_delivered", "frames_dropped", "frames_cross_shard",
    "batch_cache_hits", "batch_cache_misses",
)


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Instrumentation:
    """Installs the span wrappers on their classes, and takes them off again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals: List[Tuple[Any, str, Any]] = []
        self._event_names: Dict[Any, int] = {}
        tracer.counter_reader = medium_counters

    def install(self) -> None:
        for layer, module_name, class_name, functions in INSTRUMENTED:
            module = importlib.import_module(module_name)
            cls = module if class_name is None else getattr(module, class_name)
            names = functions if functions is not PUBLIC else [
                name for name, value in vars(cls).items()
                if not name.startswith("_")
                and isinstance(value, (FunctionType, classmethod))
            ]
            for name in names:
                raw = vars(cls).get(name)
                if raw is None:
                    continue  # inherited: the defining class is wrapped
                span_name = f"{layer}|{class_name or module_name}.{name}"
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(raw.__func__, span_name, name))
                else:
                    wrapped = self._wrap(raw, span_name, name)
                self._originals.append((cls, name, raw))
                setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for cls, name, raw in reversed(self._originals):
            setattr(cls, name, raw)
        self._originals.clear()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], span_name: str, name: str) -> Callable[..., Any]:
        tracer = self.tracer
        spans, stack = tracer.spans, tracer.stack
        name_id = tracer.name_id(span_name)
        size_of = SIZES.get(name)
        original = fn
        if name == "schedule_at":
            event = self._traced_event
            call = fn
            fn = lambda self, time, callback: call(self, time, event(callback))  # noqa: E731
        elif name == "every":
            event = self._traced_event
            call_every = fn
            fn = lambda self, period, callback, **kw: call_every(  # noqa: E731
                self, period, event(callback), **kw)
        elif name == "attach" and span_name.startswith("radio.medium|"):
            media = tracer.watched
            call_attach = fn
            def fn(self: Any, radio: Any) -> None:  # noqa: F811
                media.setdefault(id(self), self)
                call_attach(self, radio)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            size = 0
            try:
                result = fn(*args, **kwargs)
                if size_of == "ret":
                    size = int(result)
                elif size_of == "arg":
                    size = len(args[1])
                elif size_of == "len_ret":
                    size = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, size)

        return traced

    def _traced_event(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """``callback`` inside a span named after the layer that defines it."""
        target = callback.func if isinstance(callback, functools.partial) else callback
        target = getattr(target, "__func__", target)
        code = getattr(target, "__code__", None)
        owner = target if code is not None else type(target)
        key = code if code is not None else owner
        name_id = self._event_names.get(key)
        if name_id is None:
            module = getattr(owner, "__module__", "") or ""
            name_id = self._event_names[key] = self.tracer.name_id(
                f"{module_layer(module)}|event:{owner.__qualname__}"
            )
        spans, stack = self.tracer.spans, self.tracer.stack

        def event() -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return callback()
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, 0)

        return event


def medium_counters(media: Iterable[Any]) -> Dict[str, int]:
    """``MEDIUM_COUNTERS`` summed over the media a traced unit attached to."""
    totals = {name: 0 for name in MEDIUM_COUNTERS}
    for medium in media:
        for name in MEDIUM_COUNTERS:
            totals[name] += getattr(medium, name)
    return totals


# -- per-layer metrics -------------------------------------------------------


class Tally:
    """Per-layer and per-function sums over the span sets of traced units.

    A layer's calls are entries into it: spans of its public functions
    whose parent span belongs to another layer.  Span sets are added one
    at a time (this process's, then each shard worker's), so a run need
    not hold every unit's spans at once.  The phase roots' self time is
    the ``unattributed`` layer: host time inside no instrumented function.
    """

    def __init__(self) -> None:
        # Keyed by (layer, phase); phase is "setup", "run" or "worker".
        self.layer_calls: Dict[Tuple[str, str], int] = {}
        self.layer_events: Dict[Tuple[str, str], int] = {}
        self.layer_self: Dict[Tuple[str, str], float] = {}
        #: (layer, function) -> [entries, size of entries, self_s, inclusive_s]
        self.functions: Dict[Tuple[str, str], List[float]] = {}
        self.state_changes = 0
        self.handler_s = 0.0
        self.counters: Dict[str, int] = {name: 0 for name in MEDIUM_COUNTERS}

    def add(self, span_set: SpanSet) -> None:
        parsed = []
        for name in span_set.names:
            layer, _, function = name.partition("|")
            parsed.append((layer, function, function.rpartition(".")[2]))
        spans = span_set.spans
        for index, (name_id, start, end, parent, size) in enumerate(spans):
            layer, function, method = parsed[name_id]
            phase = span_set.phase[index]
            key = (layer, phase)
            self.layer_self[key] = self.layer_self.get(key, 0.0) + span_set.self_s[index]
            if function.startswith("event:"):
                self.layer_events[key] = self.layer_events.get(key, 0) + 1
                continue
            if layer == UNATTRIBUTED:
                continue
            parent_layer, _, parent_method = (
                parsed[spans[parent][0]] if parent >= 0 else ("", "", "")
            )
            if parent_layer != layer:
                self.layer_calls[key] = self.layer_calls.get(key, 0) + 1
                if layer == "radio" and method in STATE_CHANGES:
                    self.state_changes += 1
            stats = self.functions.setdefault((layer, method), [0, 0, 0.0, 0.0])
            if (parent_layer, parent_method) != (layer, method):
                stats[0] += 1
                stats[1] += size
                stats[3] += end - start
            stats[2] += span_set.self_s[index]
        for name, value in span_set.counters.items():
            self.counters[name] += value

    def add_handler(self, seconds: float) -> None:
        """Move the harness's scan-callback time out of ``radio``.

        The callbacks run inside ``BleRadio.deliver_batch`` spans during the
        run phase; ``seconds`` is their cost measured apart from the traced
        run (``RunResult.handler_s``); 0 on workloads without a callback.
        """
        if not seconds:
            return
        self.handler_s += seconds
        for layer, sign in (("radio", -1.0), ("harness", 1.0)):
            key = (layer, "run")
            self.layer_self[key] = self.layer_self.get(key, 0.0) + sign * seconds
        stats = self.functions.setdefault(("radio", "deliver_batch"), [0, 0, 0.0, 0.0])
        stats[2] -= seconds

    @staticmethod
    def _sum(table: Dict[Tuple[str, str], Any], layer: str,
             phase: Optional[str] = None) -> Any:
        return sum(
            value for (name, span_phase), value in table.items()
            if name == layer and (phase is None or span_phase == phase)
        )

    def self_s(self, layer: str, phase: Optional[str] = None) -> float:
        return self._sum(self.layer_self, layer, phase)

    def calls(self, layer: str, phase: Optional[str] = None) -> int:
        return self._sum(self.layer_calls, layer, phase)

    def function(self, layer: str, *methods: str) -> List[float]:
        """[entries, size, self_s, inclusive_s] summed over ``methods``."""
        total = [0, 0, 0.0, 0.0]
        for method in methods:
            stats = self.functions.get((layer, method), [0, 0, 0.0, 0.0])
            total = [a + b for a, b in zip(total, stats)]
        return total

    def rows(self, phase: str) -> List[Tuple[str, int, int, float]]:
        """(layer, calls, events, self_s) per layer, for spans under ``phase``."""
        layers = sorted({layer for layer, span_phase in self.layer_self
                         if span_phase == phase})
        return [
            (layer, self.layer_calls.get((layer, phase), 0),
             self.layer_events.get((layer, phase), 0), self.self_s(layer, phase))
            for layer in layers
        ]

    def metrics(self, outcomes: Sequence[Any] = ()) -> Dict[str, float]:
        """The ``per_layer`` metrics; ``outcomes`` are sharded ``SimOutcome``\\ s."""
        counters = self.counters
        steps = self.function("sim", "step_batch", "step")
        broadcasts = self.function("radio.medium", "broadcast")
        accepts = self.function("radio", "accepts_mask")
        delivers = self.function("radio", "deliver_batch")
        inserts = self.function("phy.index", "insert", "insert_batch")
        queries = self.function("phy.index", "query", "query_arrays")
        compute = self.function("sim.sharded", "run_window")[3]
        halo = self.function("sim.sharded", "horizon_packet", "apply_inbound")[3]
        shards = [result for outcome in outcomes for result in outcome.shard_results]
        return {
            "sim.events": steps[1],
            "sim.events_per_batch": _ratio(steps[1], steps[0]),
            "sim.self_s": self.self_s("sim"),
            "radio.medium.broadcasts": broadcasts[0],
            "radio.medium.fanout": _ratio(broadcasts[1], broadcasts[0]),
            "radio.medium.cache_hit_ratio": _ratio(
                counters["batch_cache_hits"],
                counters["batch_cache_hits"] + counters["batch_cache_misses"],
            ),
            "radio.medium.drop_ratio": _ratio(
                counters["frames_dropped"],
                counters["frames_delivered"] + counters["frames_dropped"],
            ),
            "radio.medium.self_s": self.self_s("radio.medium"),
            "radio.medium.attach_s": self.function("radio.medium", "attach")[2],
            "radio.accepts_mask.radios": accepts[1],
            "radio.accepts_mask.self_s": accepts[2],
            "radio.deliver_batch.radios": delivers[1],
            "radio.deliver_batch.self_s": delivers[2],
            "radio.state_changes": self.state_changes,
            "phy.mobility.calls": self.calls("phy.mobility"),
            "phy.mobility.self_s": self.self_s("phy.mobility"),
            "phy.index.inserts": inserts[0],
            "phy.index.queries": queries[0],
            "phy.index.candidates": queries[1],
            "phy.index.self_s": self.self_s("phy.index"),
            "phy.propagation.calls": self.calls("phy.propagation"),
            "energy.calls": self.calls("energy"),
            "energy.self_s": self.self_s("energy"),
            "net.flows": self.function("net", "start_flow")[0],
            "net.flows_aborted": self.function("net", "abort")[0],
            "net.self_s": self.self_s("net"),
            "comm.calls": self.calls("comm"),
            "comm.self_s": self.self_s("comm"),
            "core.calls": self.calls("core"),
            "core.self_s": self.self_s("core"),
            "apps.self_s": self.self_s("apps"),
            "sharded.compute_s": compute,
            "sharded.halo_s": halo,
            "sharded.wait_s": (
                sum(result.wall_s for result in shards) - compute - halo
                if shards else 0.0
            ),
            "sharded.cross_shard_ratio": _ratio(
                sum(outcome.frames_cross_shard for outcome in outcomes),
                sum(outcome.frames_delivered for outcome in outcomes),
            ),
            "sharded.handoffs": sum(result.handoffs_in for result in shards),
            "sharded.mirror_adds": sum(result.mirror_adds for result in shards),
            "harness.handler_s": self.handler_s,
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traffic(metrics: Dict[str, float]) -> Dict[str, float]:
    """The workload's traffic shape, read off its per-layer metrics."""
    return {
        "broadcasts": metrics["radio.medium.broadcasts"],
        "fanout": metrics["radio.medium.fanout"],
        "cache_hit_ratio": metrics["radio.medium.cache_hit_ratio"],
        "events_per_drain": metrics["sim.events_per_batch"],
        "index_queries": metrics["phy.index.queries"],
        "propagation_calls": metrics["phy.propagation.calls"],
    }
