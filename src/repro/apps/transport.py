"""A transport-neutral application interface.

The paper runs the same applications (a service interaction, Disseminate,
PRoPHET) over three systems: the State of the Practice, the State of the
Art, and Omni.  :class:`D2DTransport` is the narrow waist that makes this
possible here: each system implements it, and the applications in
:mod:`repro.apps` and :mod:`repro.experiments` are written against it.

Semantics:

- ``set_metadata`` publishes a small payload that the system disseminates
  continuously (Omni: context; baselines: discovery beacon content);
- ``send`` delivers a payload to one peer, reporting success/failure;
- peers are identified by 64-bit integers (Omni: the omni_address value;
  baselines: an equivalent hash of interface addresses).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.address import OmniAddress
from repro.core.codes import StatusCode
from repro.core.manager import OmniManager
from repro.net.payload import Payload

MetadataCallback = Callable[[int, bytes], None]
ReceiveCallback = Callable[[int, Payload], None]
ResultCallback = Callable[[bool, str], None]

#: How often Omni re-sends an application's metadata context: the period of
#: the address beacon and of the baselines' discovery.
METADATA_INTERVAL_S = 0.5


class D2DTransport:
    """What an application needs from a D2D communication system."""

    @property
    def local_id(self) -> int:
        """This device's 64-bit identity."""
        raise NotImplementedError

    @property
    def is_broadcast(self) -> bool:
        """True when ``send`` reaches every listening peer, not just one.

        The SP multicast-data mode is broadcast; applications can then share
        each item once instead of once per peer.
        """
        return False

    def start(self) -> None:
        """Bring the system up (discovery begins)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear the system down."""
        raise NotImplementedError

    def set_metadata(self, payload: bytes) -> None:
        """Publish (or replace) the continuously-shared metadata payload."""
        raise NotImplementedError

    def on_metadata(self, callback: MetadataCallback) -> None:
        """Register for peers' metadata: ``callback(peer_id, payload)``."""
        raise NotImplementedError

    def send(self, peer_id: int, payload: Payload,
             on_result: Optional[ResultCallback] = None) -> None:
        """Send ``payload`` to ``peer_id``; ``on_result(ok, detail)`` later."""
        raise NotImplementedError

    def on_receive(self, callback: ReceiveCallback) -> None:
        """Register for received data: ``callback(peer_id, payload)``."""
        raise NotImplementedError

    def peers(self) -> List[int]:
        """Identities of peers currently considered present."""
        raise NotImplementedError


class OmniTransport(D2DTransport):
    """The paper's system: applications talk to the OmniManager."""

    def __init__(self, manager: OmniManager) -> None:
        self.manager = manager
        self._metadata_context_id: Optional[str] = None
        self._pending_metadata: Optional[bytes] = None

    @property
    def local_id(self) -> int:
        return self.manager.omni_address.value

    def start(self) -> None:
        if not self.manager.enabled:
            self.manager.enable()

    def stop(self) -> None:
        self.manager.disable()

    def set_metadata(self, payload: bytes) -> None:
        params = {"interval_s": METADATA_INTERVAL_S}
        if self._metadata_context_id is not None:
            self.manager.update_context(self._metadata_context_id, params, payload, None)
            return
        if self._pending_metadata is not None:
            # add_context still in flight; remember the newest payload.
            self._pending_metadata = payload
            return
        self._pending_metadata = payload

        def on_status(code: StatusCode, info) -> None:
            if code is StatusCode.ADD_CONTEXT_SUCCESS:
                self._metadata_context_id = info
                latest, self._pending_metadata = self._pending_metadata, None
                if latest is not None and latest != payload:
                    self.manager.update_context(info, params, latest, None)

        self.manager.add_context(params, payload, on_status)

    def on_metadata(self, callback: MetadataCallback) -> None:
        self.manager.request_context(
            lambda source, context: callback(source.value, context)
        )

    def send(self, peer_id: int, payload: Payload,
             on_result: Optional[ResultCallback] = None) -> None:
        def on_status(code: StatusCode, info) -> None:
            if on_result is None:
                return
            if code is StatusCode.SEND_DATA_SUCCESS:
                on_result(True, "")
            else:
                detail = info[0] if isinstance(info, tuple) else str(info)
                on_result(False, str(detail))

        self.manager.send_data([OmniAddress(peer_id)], payload, on_status)

    def on_receive(self, callback: ReceiveCallback) -> None:
        self.manager.request_data(
            lambda source, data: callback(source.value, data)
        )

    def peers(self) -> List[int]:
        return [address.value for address in self.manager.neighbors()]
