"""Multicast discovery announcer."""

import pytest

from repro.net.announcer import MulticastAnnouncer
from repro.radio.frame import RadioKind
from repro.radio.wifi import MULTICAST_AIRTIME_S


@pytest.fixture
def announcer_pair(kernel, make_device, mesh):
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    announcer = MulticastAnnouncer(a.radio(RadioKind.WIFI), mesh, lambda: b"announce")
    return announcer, a, b


def test_start_joins_and_announces(kernel, announcer_pair, mesh):
    announcer, a, b = announcer_pair
    heard = []
    kernel.run_until_complete(b.radio(RadioKind.WIFI).join(mesh, peer_mode=False))
    b.radio(RadioKind.WIFI).on_multicast(lambda payload, src: heard.append(kernel.now))
    announcer.start()
    kernel.run_until(5.0)
    assert a.radio(RadioKind.WIFI) in mesh
    # Joined after ~1 s, then every ~0.5 s.
    assert 6 <= len(heard) <= 10


def test_membership_is_multicast_only(kernel, announcer_pair):
    announcer, a, _ = announcer_pair
    announcer.start()
    kernel.run_until(3.0)
    assert not a.radio(RadioKind.WIFI).peer_mode


def test_payload_factory_called_fresh_each_time(kernel, make_device, mesh):
    a = make_device("a", x=0)
    b = make_device("b", x=5)
    payloads = iter([b"one", b"two", b"three", b"four", b"five", b"six"])
    announcer = MulticastAnnouncer(a.radio(RadioKind.WIFI), mesh, lambda: next(payloads))
    heard = []
    kernel.run_until_complete(b.radio(RadioKind.WIFI).join(mesh, peer_mode=False))
    b.radio(RadioKind.WIFI).on_multicast(lambda payload, src: heard.append(payload))
    announcer.start()  # joins for ~1 s, then announces every ~0.5 s
    kernel.run_until(3.3)
    assert heard[:2] == [b"one", b"two"]


def test_channel_overhead_registered_while_active(kernel, announcer_pair, mesh):
    announcer, _, _ = announcer_pair
    announcer.start()
    kernel.run_until(2.0)
    assert mesh.channel.overhead_fraction == pytest.approx(
        MULTICAST_AIRTIME_S / 0.5
    )
    announcer.stop()
    assert mesh.channel.overhead_fraction == 0.0


def test_stop_silences_announcements(kernel, announcer_pair, mesh):
    announcer, _, b = announcer_pair
    heard = []
    kernel.run_until_complete(b.radio(RadioKind.WIFI).join(mesh, peer_mode=False))
    b.radio(RadioKind.WIFI).on_multicast(lambda payload, src: heard.append(payload))
    announcer.start()
    kernel.run_until(3.0)
    count = len(heard)
    announcer.stop()
    announcer.stop()  # idempotent
    kernel.run_until(10.0)
    assert len(heard) == count


def test_announcer_never_scans(kernel, announcer_pair):
    announcer, a, _ = announcer_pair
    announcer.start()
    kernel.run_until(60.0)
    assert a.radio(RadioKind.WIFI).scans_performed == 0
