"""PRoPHET router mechanics."""

import pytest
from hypothesis import given, strategies as st

from repro.apps.prophet import (
    GAMMA,
    P_INIT,
    ProphetNode,
    decode_summary,
    encode_summary,
)
from repro.experiments.scenario import OMNI_TECHS_BLE_WIFI, Testbed
from repro.net.payload import VirtualPayload
from repro.phy.geometry import Position


class TestSummaryCodec:
    @given(
        st.dictionaries(st.integers(min_value=0, max_value=(1 << 64) - 1),
                        st.floats(min_value=0, max_value=1),
                        max_size=5),
        st.sets(st.integers(min_value=0, max_value=65535), max_size=5),
    )
    def test_property_roundtrip_quantized(self, entries, bundle_ids):
        predictabilities = sorted(entries.items())
        raw = encode_summary(predictabilities, sorted(bundle_ids))
        decoded = decode_summary(raw)
        assert decoded is not None
        decoded_predictabilities, decoded_bundles = decoded
        assert decoded_bundles == bundle_ids
        for dest, probability in predictabilities:
            assert decoded_predictabilities[dest] == pytest.approx(
                probability, abs=1 / 255
            )

    def test_typical_summary_fits_ble_context(self):
        raw = encode_summary([(0xFFFFFFFFFFFFFFFF, 0.9)], [17])
        assert len(raw) <= 18  # the BLE context budget

    def test_alien_bytes_rejected(self):
        assert decode_summary(b"") is None
        assert decode_summary(b"\x63\x00") is None  # wrong version

    def test_truncated_rejected(self):
        raw = encode_summary([(5, 0.5)], [1])
        assert decode_summary(raw[:-1]) is None


class TestPredictabilityTable:
    @pytest.fixture
    def node(self):
        testbed = Testbed(seed=8)
        device = testbed.add_device("n", position=Position(0, 0))
        transport = testbed.omni(device, OMNI_TECHS_BLE_WIFI)
        node = ProphetNode(testbed.kernel, transport)
        node.start()
        return testbed, node

    def test_unknown_peer_zero(self, node):
        _, router = node
        assert router.predictability_for(12345) == 0.0

    def test_encounter_raises_predictability(self, node):
        _, router = node
        router._credit_encounter(42)
        assert router.predictability_for(42) == pytest.approx(P_INIT)

    def test_repeated_encounters_converge_upward(self, node):
        testbed, router = node
        for round_index in range(10):
            testbed.kernel.run_until(testbed.kernel.now + 5.0)
            router._credit_encounter(42)
        # Encounters every refractory period push P well above a single
        # encounter's P_INIT even against aging (read right after a credit).
        assert router.predictability_for(42) > 0.9

    def test_refractory_limits_crediting(self, node):
        _, router = node
        router._credit_encounter(42)
        router._credit_encounter(42)  # same meeting, no extra credit
        assert router.predictability_for(42) == pytest.approx(P_INIT)

    def test_aging_decays_over_time(self, node):
        testbed, router = node
        router.seed_predictability(42, 0.8)
        testbed.kernel.run_until(testbed.kernel.now + 10.0)
        aged = router.predictability_for(42)
        assert aged == pytest.approx(0.8 * GAMMA ** 10, rel=0.01)

    def test_transitivity_raises_toward_remote_dest(self, node):
        _, router = node
        router._credit_encounter(42)  # P(self,42) = 0.75
        router._apply_transitivity(42, {99: 0.8})
        expected = 0.75 * 0.8 * 0.25
        assert router.predictability_for(99) == pytest.approx(expected, rel=0.01)

    def test_transitivity_never_lowers(self, node):
        _, router = node
        router.seed_predictability(99, 0.9)
        router._credit_encounter(42)
        router._apply_transitivity(42, {99: 0.1})
        assert router.predictability_for(99) > 0.85

    def test_predictability_bounded(self, node):
        _, router = node
        router.seed_predictability(42, 1.0)
        for _ in range(5):
            router._credit_encounter(42)
        assert 0.0 <= router.predictability_for(42) <= 1.0


class TestRouting:
    def _pair(self, seed=9):
        testbed = Testbed(seed=seed)
        routers = []
        for name, x in (("a", 0.0), ("b", 10.0)):
            device = testbed.add_device(name, position=Position(x, 0))
            transport = testbed.omni(device, OMNI_TECHS_BLE_WIFI)
            routers.append(ProphetNode(testbed.kernel, transport))
        for router in routers:
            router.start()
        return testbed, routers

    def test_direct_delivery_to_destination(self):
        testbed, (a, b) = self._pair()
        delivered = []
        b.on_delivered(lambda bundle: delivered.append(testbed.kernel.now))
        testbed.kernel.run_until(1.0)
        a.send_bundle(b.local_id, VirtualPayload(1000))
        testbed.kernel.run_until(3.0)
        assert delivered
        assert b.delivered[0].source_id == a.local_id

    def test_no_forwarding_to_worse_carrier(self):
        testbed, (a, b) = self._pair()
        testbed.kernel.run_until(1.0)
        # a is better positioned toward dest 999 than b.
        a.seed_predictability(999, 0.9)
        a.send_bundle(999, VirtualPayload(100))
        testbed.kernel.run_until(5.0)
        assert not b.buffer  # b never advertised better predictability

    def test_forwarding_to_better_carrier(self):
        testbed, (a, b) = self._pair()
        testbed.kernel.run_until(1.0)
        b.seed_predictability(999, 0.9)
        testbed.kernel.run_until(2.0)  # let b's summary propagate
        a.send_bundle(999, VirtualPayload(100))
        testbed.kernel.run_until(5.0)
        assert len(b.buffer) == 1

    def test_no_duplicate_forwarding(self):
        testbed, (a, b) = self._pair()
        testbed.kernel.run_until(1.0)
        b.seed_predictability(999, 0.9)
        testbed.kernel.run_until(2.0)
        a.send_bundle(999, VirtualPayload(100))
        testbed.kernel.run_until(20.0)
        # b's summaries now advertise the bundle id; a must not resend.
        assert len(b.buffer) == 1
        assert len(b.delivered) == 0

    def test_source_keeps_copy_after_forwarding(self):
        testbed, (a, b) = self._pair()
        testbed.kernel.run_until(1.0)
        b.seed_predictability(999, 0.9)
        testbed.kernel.run_until(2.0)
        a.send_bundle(999, VirtualPayload(100))
        testbed.kernel.run_until(5.0)
        assert len(a.buffer) == 1  # multi-copy routing
