"""The Omni Manager (paper Sec 3.3) and the Developer API (Sec 3.1).

One OmniManager runs per device.  It:

- routes application requests (context add/update/remove, data sends) to
  the appropriate technology adapters through per-technology send queues;
- maintains the peer mapping (omni_address → technologies → low-level
  addresses) from every received transmission;
- transmits the hidden address beacon every 500 ms on the lowest-energy
  context technology, engaging other technologies on demand;
- selects the data technology minimizing expected delivery time and fails
  over across technologies before reporting failure to the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.address import OmniAddress
from repro.core.beacon import BeaconService
from repro.core.codes import (
    ContextCallback,
    DataCallback,
    StatusCallback,
    StatusCode,
)
from repro.core.context import ContextParams, ContextRegistration, ContextRegistry
from repro.core.messages import (
    Operation,
    ReceivedContent,
    SendRequest,
    TechResponse,
    TechStatusChange,
)
from repro.core.packed import AddressBeacon, ContentKind, OmniPacked
from repro.core.peers import PeerTable
from repro.core.selection import DataTechSelector
from repro.core.tech import TechQueues, TechType, TechnologyAdapter
from repro.net.payload import Payload, payload_size
from repro.radio.base import Device
from repro.sim.queues import SimQueue

#: Context id namespace for the hidden system beacon registration.
_BEACON_CONTEXT_NS = "omni-beacon"

#: How often the manager drops peers not heard from within
#: ``OmniConfig.peer_staleness_s``.
EXPIRE_PERIOD_S = 2.0


@dataclass
class OmniConfig:
    """Tunable Omni Manager parameters (paper defaults)."""

    beacon_interval_s: float = 0.5  # "fixed the interval ... to be every 500 ms"
    secondary_listen_period_s: float = 5.0  # "much lower frequency (e.g. every 5s)"
    secondary_listen_window_s: float = 0.05
    peer_staleness_s: float = 10.0
    selection_policy: str = "expected_time"  # see repro.core.selection.POLICIES
    # Optional shared-key protection of application context (paper Sec 3.4);
    # None = plaintext. Address beacons are never encrypted.
    context_cipher: Any = None
    # Optional adaptive address-beacon pacing (paper "Future Considerations");
    # None = the fixed beacon_interval_s.
    adaptive_beacon: Any = None
    # Optional BLE-Mesh-style multi-hop context relaying (paper "Future
    # Work"); pass a repro.core.relay.RelayConfig, None = single-hop only.
    context_relay: Any = None


@dataclass
class _PendingData:
    """Book-keeping for one in-flight data request to one destination."""

    destination: OmniAddress
    packed: OmniPacked
    status_callback: Optional[StatusCallback]
    tried: Set[TechType]


class OmniManager:
    """The per-device Omni middleware instance, exposing the Developer API."""

    def __init__(self, device: Device, config: Optional[OmniConfig] = None) -> None:
        self.device = device
        self.kernel = device.kernel
        self.config = config or OmniConfig()
        self.adapters: Dict[TechType, TechnologyAdapter] = {}
        self.low_level_addresses: Dict[TechType, Any] = {}
        self.receive_queue = SimQueue(f"{device.name}.receive")
        self.response_queue = SimQueue(f"{device.name}.response")
        self.peer_table = PeerTable(self.kernel, staleness_s=self.config.peer_staleness_s)
        self.selector = DataTechSelector(
            self.peer_table, policy=self.config.selection_policy
        )
        self.contexts = ContextRegistry()
        self.beacon_service = BeaconService(self)
        from repro.core.security import NullCipher

        self.cipher = self.config.context_cipher or NullCipher()
        self._adaptive_task = None
        self._relay_cache = None
        if self.config.context_relay is not None:
            from repro.core.relay import RelayCache

            self._relay_cache = RelayCache(self.config.context_relay.dedup_window_s)
        self._context_callbacks: List[ContextCallback] = []
        self._data_callbacks: List[DataCallback] = []
        self._pending_data: Dict[str, _PendingData] = {}
        self._context_acked: Dict[str, Set[TechType]] = {}
        self._context_failed: Dict[str, Set[TechType]] = {}
        self._context_announced: Set[str] = set()
        self._beacon_registration: Optional[ContextRegistration] = None
        self._expire_task = None
        self._loops: List[Any] = []
        self.enabled = False
        self.omni_address = self._derive_omni_address()

    # -- identity -------------------------------------------------------------

    def _derive_omni_address(self) -> OmniAddress:
        addresses = []
        for radio in self.device.radios.values():
            raw = getattr(radio, "address", None)
            if raw is not None:
                addresses.append(raw.to_bytes())
        if not addresses:
            raise ValueError(
                f"device {self.device.name} has no addressable radios for Omni"
            )
        return OmniAddress.from_interface_addresses(addresses)

    # -- lifecycle --------------------------------------------------------

    def register_adapter(self, adapter: TechnologyAdapter) -> TechnologyAdapter:
        """Attach a technology adapter; call before :meth:`enable`."""
        if adapter.tech_type in self.adapters:
            raise ValueError(f"adapter for {adapter.tech_type.value} already registered")
        self.adapters[adapter.tech_type] = adapter
        return adapter

    def enable(self) -> None:
        """Start the middleware: adapters, queue loops, beaconing."""
        if self.enabled:
            raise RuntimeError("OmniManager already enabled")
        if not self.adapters:
            raise RuntimeError("no technology adapters registered")
        self.enabled = True
        for tech_type in sorted(self.adapters, key=lambda tech: tech.value):
            adapter = self.adapters[tech_type]
            queues = TechQueues(
                send_queue=SimQueue(f"{self.device.name}.{tech_type.value}.send"),
                receive_queue=self.receive_queue,
                response_queue=self.response_queue,
            )
            reported_type, low_level = adapter.enable(queues)
            assert reported_type is tech_type
            self.low_level_addresses[tech_type] = low_level
        self._loops.append(self.kernel.spawn(self._receive_loop(), name="omni-recv"))
        self._loops.append(self.kernel.spawn(self._response_loop(), name="omni-resp"))
        self._register_address_beacon()
        self.beacon_service.start()
        self._expire_task = self.kernel.every(EXPIRE_PERIOD_S, self._expire_peers)
        if self.config.adaptive_beacon is not None:
            from repro.core.adaptive import AdaptiveBeaconController

            self._adaptive_controller = AdaptiveBeaconController(
                self.config.adaptive_beacon, self.config.beacon_interval_s
            )
            self._adaptive_task = self.kernel.every(
                self.config.adaptive_beacon.evaluate_period_s, self._adapt_beacon
            )

    def disable(self) -> None:
        """Stop the middleware and all adapters."""
        if not self.enabled:
            return
        self.enabled = False
        self.beacon_service.stop()
        if self._expire_task is not None:
            self._expire_task.cancel()
            self._expire_task = None
        if self._adaptive_task is not None:
            self._adaptive_task.cancel()
            self._adaptive_task = None
        for loop in self._loops:
            if loop.alive:
                loop.interrupt("manager disabled")
        self._loops.clear()
        for adapter in self.adapters.values():
            adapter.disable()

    # -- Developer API (paper Table 1) -----------------------------------------

    def add_context(self, params: Any, context: bytes,
                    status_callback: Optional[StatusCallback]) -> None:
        """Begin periodically sharing ``context`` (Sec 3.1, "Sending Context").

        The reference id arrives asynchronously via
        ``status_callback(ADD_CONTEXT_SUCCESS, context_id)``.
        """
        self._require_enabled()
        registration = ContextRegistration(
            context_id=self.kernel.ids.next("ctx"),
            params=ContextParams.from_params(params),
            payload=bytes(context),
            status_callback=status_callback,
        )
        self.contexts.add(registration)
        self._context_acked[registration.context_id] = set()
        self._context_failed[registration.context_id] = set()
        self._sync_context_assignments()
        if not registration.assigned_techs:
            # No technology can carry this context at all (e.g. it exceeds
            # every available payload limit): fail fast, per Table 2.
            self.contexts.remove(registration.context_id)
            self._async_status(
                status_callback,
                StatusCode.ADD_CONTEXT_FAILURE,
                ("no technology can carry this context", registration.context_id),
            )

    def update_context(self, context_id: str, params: Any, context: Optional[bytes],
                       status_callback: Optional[StatusCallback]) -> None:
        """Change the parameters, payload, or callback of a live context."""
        self._require_enabled()
        registration = self.contexts.get(context_id)
        if registration is None or registration.is_system:
            self._async_status(
                status_callback,
                StatusCode.UPDATE_CONTEXT_FAILURE,
                (f"unknown context id {context_id!r}", context_id),
            )
            return
        if params is not None:
            registration.params = ContextParams.from_params(params)
        if context is not None:
            registration.payload = bytes(context)
        if status_callback is not None:
            registration.status_callback = status_callback
        # Re-issue to currently assigned technologies; payload growth may
        # also force reassignment (e.g. off BLE onto multicast).
        self._context_failed[context_id] = set()
        desired = self._desired_techs(registration)
        for tech in sorted(registration.assigned_techs, key=lambda item: item.value):
            if tech in desired:
                self._enqueue_context(registration, tech, Operation.UPDATE_CONTEXT)
        self._sync_context_assignments()

    def remove_context(self, context_id: str,
                       status_callback: Optional[StatusCallback]) -> None:
        """Stop sharing the context identified by ``context_id``."""
        self._require_enabled()
        registration = self.contexts.get(context_id)
        if registration is None or registration.is_system:
            self._async_status(
                status_callback,
                StatusCode.REMOVE_CONTEXT_FAILURE,
                (f"unknown context id {context_id!r}", context_id),
            )
            return
        if status_callback is not None:
            registration.status_callback = status_callback
        self.contexts.remove(context_id)
        for tech in sorted(registration.assigned_techs, key=lambda item: item.value):
            self._enqueue_context(registration, tech, Operation.REMOVE_CONTEXT)
        if not registration.assigned_techs:
            self._async_status(
                registration.status_callback,
                StatusCode.REMOVE_CONTEXT_SUCCESS,
                context_id,
            )

    def send_data(self, destinations: Iterable[OmniAddress], data: Payload,
                  status_callback: Optional[StatusCallback]) -> None:
        """Send ``data`` to each destination (Sec 3.1, "Sending Data").

        Per destination, the manager picks the technology minimizing expected
        delivery time and fails over across technologies; the callback gets
        one ``SEND_DATA_SUCCESS``/``SEND_DATA_FAILURE`` per destination.
        """
        self._require_enabled()
        packed = OmniPacked.data(self.omni_address, data)
        for destination in destinations:
            pending = _PendingData(
                destination=destination,
                packed=packed,
                status_callback=status_callback,
                tried=set(),
            )
            self._dispatch_data(self.kernel.ids.next("data"), pending)

    def request_context(self, receive_context_callback: ContextCallback) -> None:
        """Register a callback for received context packs."""
        self._context_callbacks.append(receive_context_callback)

    def request_data(self, receive_data_callback: DataCallback) -> None:
        """Register a callback for received data."""
        self._data_callbacks.append(receive_data_callback)

    # -- convenience views -----------------------------------------------------

    def neighbors(self) -> List[OmniAddress]:
        """Omni addresses of peers currently considered present."""
        return [record.omni_address for record in self.peer_table.neighbors()]

    def _require_enabled(self) -> None:
        if not self.enabled:
            raise RuntimeError("OmniManager is not enabled")

    # -- context assignment ------------------------------------------------

    def _register_address_beacon(self) -> None:
        beacon = AddressBeacon(
            mesh_address=(
                self.low_level_addresses.get(TechType.WIFI_TCP)
                or self.low_level_addresses.get(TechType.WIFI_MULTICAST)
            ),
            ble_address=self.low_level_addresses.get(TechType.BLE_BEACON),
        )
        registration = ContextRegistration(
            context_id=self.kernel.ids.next(_BEACON_CONTEXT_NS),
            params=ContextParams(interval_s=self.config.beacon_interval_s),
            payload=beacon.encode(),
            status_callback=None,
            is_system=True,
        )
        self.contexts.add(registration)
        self._context_acked[registration.context_id] = set()
        self._context_failed[registration.context_id] = set()
        self._beacon_registration = registration
        self._sync_context_assignments()

    def _desired_techs(self, registration: ContextRegistration) -> Set[TechType]:
        """Which technologies should carry this context right now.

        All engaged technologies whose payload limit admits it; if none fit,
        the cheapest enabled context technology that does (a large context
        can overflow BLE onto multicast even when multicast is not engaged).
        """
        fits: List[TechType] = []
        overhead = 0 if registration.is_system else self.cipher.overhead
        for tech in self.beacon_service.engaged_techs:
            adapter = self.adapters[tech]
            limit = adapter.traits.context_payload_limit
            # Packed header + (possibly sealed) payload.
            wire = 9 + len(registration.payload) + overhead
            if (limit is None or wire <= limit) and tech not in self._context_failed.get(
                registration.context_id, set()
            ):
                fits.append(tech)
        if fits:
            return set(fits)
        fallbacks = [
            tech
            for tech, adapter in self.adapters.items()
            if adapter.available
            and adapter.traits.supports_context
            and tech not in self._context_failed.get(registration.context_id, set())
            and (
                adapter.traits.context_payload_limit is None
                or 9 + len(registration.payload) + overhead
                <= adapter.traits.context_payload_limit
            )
        ]
        if not fallbacks:
            return set()
        cheapest = min(fallbacks, key=lambda tech: self.adapters[tech].traits.energy_rank)
        return {cheapest}

    def _sync_context_assignments(self) -> None:
        """Reconcile every registration with its desired technology set."""
        if not self.enabled:
            return
        for registration in self.contexts.all():
            desired = self._desired_techs(registration)
            current = set(registration.assigned_techs)
            for tech in sorted(desired - current, key=lambda item: item.value):
                registration.assigned_techs.add(tech)
                self._enqueue_context(registration, tech, Operation.ADD_CONTEXT)
            for tech in sorted(current - desired, key=lambda item: item.value):
                registration.assigned_techs.discard(tech)
                self._enqueue_context(registration, tech, Operation.REMOVE_CONTEXT)

    def _context_packed(self, registration: ContextRegistration) -> OmniPacked:
        if registration.is_system:
            return OmniPacked(
                ContentKind.ADDRESS_BEACON, self.omni_address, registration.payload
            )
        return OmniPacked.context(
            self.omni_address, self.cipher.seal(registration.payload)
        )

    def _enqueue_context(self, registration: ContextRegistration, tech: TechType,
                         operation: Operation) -> None:
        adapter = self.adapters.get(tech)
        if adapter is None or not adapter.enabled or adapter.queues is None:
            return
        request = SendRequest(
            operation=operation,
            request_id=self.kernel.ids.next("req"),
            packed=self._context_packed(registration),
            params={"interval_s": registration.params.interval_s},
            status_callback=registration.status_callback,
            context_id=registration.context_id,
        )
        adapter.queues.send_queue.put(request)

    # -- data dispatch --------------------------------------------------------

    def _dispatch_data(self, request_id: str, pending: _PendingData) -> None:
        size = pending.packed.wire_size
        plans = self.selector.plans(
            self.adapters, pending.destination, size, exclude=pending.tried
        )
        if not plans:
            reason = (
                "no technology can reach destination"
                if not pending.tried
                else f"all technologies failed ({sorted(t.value for t in pending.tried)})"
            )
            self._async_status(
                pending.status_callback,
                StatusCode.SEND_DATA_FAILURE,
                (reason, pending.destination),
            )
            return
        plan = plans[0]
        pending.tried.add(plan.tech_type)
        self._pending_data[request_id] = pending
        adapter = self.adapters[plan.tech_type]
        request = SendRequest(
            operation=Operation.SEND_DATA,
            request_id=request_id,
            packed=pending.packed,
            params={"expected_seconds": plan.expected_seconds},
            status_callback=pending.status_callback,
            destination=plan.low_level_address,
            destination_omni=pending.destination,
            fast_hint=plan.fast_hint,
            attempt=len(pending.tried),
        )
        assert adapter.queues is not None
        adapter.queues.send_queue.put(request)

    # -- queue loops -----------------------------------------------------------

    def _receive_loop(self):
        while self.enabled:
            item = yield self.receive_queue.get()
            if isinstance(item, ReceivedContent):
                self._process_received(item)

    def _response_loop(self):
        while self.enabled:
            item = yield self.response_queue.get()
            if isinstance(item, TechResponse):
                self._process_response(item)
            elif isinstance(item, TechStatusChange):
                self._process_status_change(item)

    # -- receive handling ---------------------------------------------------

    def _process_received(self, item: ReceivedContent) -> None:
        packed = item.packed
        if packed.omni_address == self.omni_address:
            return  # our own transmission reflected back
        self.peer_table.observe(
            packed.omni_address,
            item.tech_type,
            item.low_level_sender,
            fast_peer=item.fast_peer_capable,
        )
        if packed.kind is ContentKind.ADDRESS_BEACON:
            self._absorb_address_beacon(packed, item)
            self.beacon_service.note_content_received(item.tech_type)
            return
        if packed.kind is ContentKind.CONTEXT:
            self.beacon_service.note_content_received(item.tech_type,
                                                      is_app_context=True)
            if self.config.context_relay is not None:
                # Direct reception consumed the first hop; pass the sealed
                # payload on (relayers need not hold the group key).
                self._maybe_relay(
                    packed.omni_address,
                    packed.payload,
                    self.config.context_relay.ttl - 1,
                )
            payload = self.cipher.open(packed.payload)
            if payload is None:
                return  # foreign or tampered context: dropped (Sec 3.4)
            for callback in list(self._context_callbacks):
                callback(packed.omni_address, payload)
            return
        if packed.kind is ContentKind.RELAYED_CONTEXT:
            self._process_relayed(packed)
            return
        for callback in list(self._data_callbacks):
            callback(packed.omni_address, packed.payload)

    def _process_relayed(self, packed: OmniPacked) -> None:
        from repro.core.relay import decode_relay

        decoded = decode_relay(packed.payload)
        if decoded is None:
            return
        ttl, origin, sealed = decoded
        if origin == self.omni_address:
            return  # our own context echoing back
        payload = self.cipher.open(sealed)
        if payload is not None:
            for callback in list(self._context_callbacks):
                callback(origin, payload)
        if ttl > 0:
            self._maybe_relay(origin, sealed, ttl - 1)

    def _maybe_relay(self, origin: OmniAddress, sealed_payload, ttl: int) -> None:
        """Re-advertise a context over BLE with a decremented hop budget."""
        from repro.core.relay import encode_relay

        if self._relay_cache is None or ttl < 0:
            return
        adapter = self.adapters.get(TechType.BLE_BEACON)
        if adapter is None or not adapter.available or adapter.queues is None:
            return
        if not isinstance(sealed_payload, (bytes, bytearray)):
            return  # bulk/virtual payloads are never relayed
        if not self._relay_cache.should_relay(origin, bytes(sealed_payload),
                                              self.kernel.now):
            return
        frame = encode_relay(ttl, origin, bytes(sealed_payload))
        packed = OmniPacked(ContentKind.RELAYED_CONTEXT, self.omni_address, frame)
        request = SendRequest(
            operation=Operation.RELAY_CONTEXT,
            request_id=self.kernel.ids.next("req"),
            packed=packed,
        )
        delay = self.config.context_relay.rebroadcast_delay_s
        queue = adapter.queues.send_queue
        self.kernel.call_in(delay, lambda: queue.put(request))

    def _absorb_address_beacon(self, packed: OmniPacked, item: ReceivedContent) -> None:
        beacon = packed.decode_beacon()
        if beacon.mesh_address is not None:
            for tech in (TechType.WIFI_TCP, TechType.WIFI_MULTICAST):
                self.peer_table.observe(
                    packed.omni_address,
                    tech,
                    beacon.mesh_address,
                    fast_peer=item.fast_peer_capable,
                )
        if beacon.ble_address is not None:
            self.peer_table.observe(
                packed.omni_address,
                TechType.BLE_BEACON,
                beacon.ble_address,
                fast_peer=item.fast_peer_capable,
            )

    # -- response handling ----------------------------------------------------

    def _process_response(self, response: TechResponse) -> None:
        request = response.request
        if request.operation is Operation.RELAY_CONTEXT:
            return  # relays are fire-and-forget
        if request.operation is Operation.SEND_DATA:
            self._process_data_response(response)
            return
        self._process_context_response(response)

    def _process_data_response(self, response: TechResponse) -> None:
        request = response.request
        pending = self._pending_data.pop(request.request_id, None)
        if pending is None:
            return  # already resolved (e.g. duplicate response)
        if response.code.is_success:
            self._async_status(
                pending.status_callback,
                StatusCode.SEND_DATA_SUCCESS,
                pending.destination,
            )
            return
        # Failure: try the next technology before telling the application
        # (paper Sec 3.1, "Handling Failures").
        self._dispatch_data(request.request_id, pending)

    def _process_context_response(self, response: TechResponse) -> None:
        request = response.request
        context_id = request.context_id
        assert context_id is not None
        registration = self.contexts.get(context_id) or (
            self._beacon_registration
            if self._beacon_registration is not None
            and self._beacon_registration.context_id == context_id
            else None
        )
        acked = self._context_acked.setdefault(context_id, set())
        failed = self._context_failed.setdefault(context_id, set())
        if response.code.is_success:
            if request.operation is Operation.ADD_CONTEXT:
                acked.add(response.tech_type)
                if (
                    registration is not None
                    and not registration.is_system
                    and context_id not in self._context_announced
                ):
                    self._context_announced.add(context_id)
                    self._async_status(
                        registration.status_callback,
                        StatusCode.ADD_CONTEXT_SUCCESS,
                        context_id,
                    )
            elif request.operation is Operation.REMOVE_CONTEXT:
                acked.discard(response.tech_type)
                if registration is None and not acked:
                    # Registration fully torn down.
                    self._async_status(
                        request.status_callback,
                        StatusCode.REMOVE_CONTEXT_SUCCESS,
                        context_id,
                    )
            elif request.operation is Operation.UPDATE_CONTEXT:
                if registration is not None and not registration.is_system:
                    self._async_status(
                        registration.status_callback,
                        StatusCode.UPDATE_CONTEXT_SUCCESS,
                        context_id,
                    )
            return
        # Failure path: mark the technology, try alternatives.
        failed.add(response.tech_type)
        if registration is not None:
            registration.assigned_techs.discard(response.tech_type)
            self._sync_context_assignments()
            still_assigned = registration.assigned_techs
            if not still_assigned and not acked and not registration.is_system:
                self._async_status(
                    registration.status_callback,
                    request.failure_code,
                    (response.response_info, context_id),
                )

    def _process_status_change(self, change: TechStatusChange) -> None:
        if not change.available:
            # Strip assignments on the vanished technology and reassign.
            for registration in self.contexts.all():
                registration.assigned_techs.discard(change.tech_type)
            self._sync_context_assignments()
        self.beacon_service.on_primary_changed()

    # -- misc -------------------------------------------------------------

    def _expire_peers(self) -> None:
        self.peer_table.expire()

    def _adapt_beacon(self) -> None:
        """Re-pace the address beacon from the neighborhood (eDiscovery-style)."""
        registration = self._beacon_registration
        if registration is None or not self.enabled:
            return
        neighbors = frozenset(address.value for address in self.neighbors())
        new_interval = self._adaptive_controller.evaluate(neighbors)
        if abs(new_interval - registration.params.interval_s) < 1e-9:
            return
        registration.params = ContextParams(interval_s=new_interval)
        for tech in sorted(registration.assigned_techs, key=lambda item: item.value):
            self._enqueue_context(registration, tech, Operation.UPDATE_CONTEXT)

    def _async_status(self, callback: Optional[StatusCallback], code: StatusCode,
                      response_info: Any) -> None:
        if callback is None:
            return
        self.kernel.call_in(0.0, lambda: callback(code, response_info))

    def __repr__(self) -> str:
        return (
            f"OmniManager({self.device.name}, {self.omni_address}, "
            f"{len(self.adapters)} techs, enabled={self.enabled})"
        )
