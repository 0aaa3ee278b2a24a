"""Flow energy model: duty curve and per-device aggregation."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.energy.constants import WIFI_RECEIVE_MA, WIFI_SEND_MA
from repro.energy.meter import EnergyMeter
from repro.net.flow_energy import (
    REFERENCE_RATE_BPS,
    SATURATION_EXTRA_MA,
    SATURATION_KNEE,
    WAKE_FLOOR_DUTY,
    FlowEnergyAccountant,
    accountant_for,
    multicast_receiver_binder,
    receiver_binder,
    sender_binder,
)
from repro.runner.jobs import jobs_for
from repro.sim.kernel import Kernel


def flow_draw_ma(rate_bps: float, op_ma: float) -> float:
    """Draw (mA) of a standalone endpoint at ``rate_bps``: the single-flow
    special case of the aggregate model, and these tests' reference curve."""
    duty = 0.0 if rate_bps <= 0.0 else min(
        1.0, rate_bps / REFERENCE_RATE_BPS + WAKE_FLOOR_DUTY
    )
    draw = op_ma * duty
    if duty > SATURATION_KNEE:
        ramp = (duty - SATURATION_KNEE) / (1.0 - SATURATION_KNEE)
        draw += SATURATION_EXTRA_MA * ramp
    return draw


class TestDrawCurve:
    def test_zero_rate_zero_draw(self):
        assert flow_draw_ma(0.0, WIFI_SEND_MA) == 0.0

    def test_wake_floor_for_trickle(self):
        draw = flow_draw_ma(1.0, WIFI_RECEIVE_MA)
        assert draw >= WIFI_RECEIVE_MA * WAKE_FLOOR_DUTY

    def test_saturated_rate_includes_surcharge(self):
        draw = flow_draw_ma(REFERENCE_RATE_BPS * 3, WIFI_RECEIVE_MA)
        assert draw == pytest.approx(WIFI_RECEIVE_MA + SATURATION_EXTRA_MA)

    def test_below_knee_no_surcharge(self):
        rate = REFERENCE_RATE_BPS * 0.3
        assert flow_draw_ma(rate, 100.0) == pytest.approx(
            100.0 * (0.3 + WAKE_FLOOR_DUTY)
        )

    @given(st.floats(min_value=0, max_value=1e8, allow_nan=False))
    def test_property_monotonic_in_rate(self, rate):
        lower = flow_draw_ma(rate, WIFI_SEND_MA)
        higher = flow_draw_ma(rate * 1.5 + 1, WIFI_SEND_MA)
        assert higher >= lower - 1e-9

    @given(st.floats(min_value=0, max_value=1e8, allow_nan=False))
    def test_property_single_flow_matches_curve(self, rate):
        meter = EnergyMeter(Kernel(seed=0))
        FlowEnergyAccountant(meter).set_rate("rx", "only", rate)
        draws = meter.active_components()
        total = draws.get("wifi.flow-rx", 0.0) + draws.get("wifi.flow-cpu", 0.0)
        assert total == pytest.approx(flow_draw_ma(rate, WIFI_RECEIVE_MA))


class TestAccountant:
    def test_aggregates_rates_per_direction(self, kernel):
        meter = EnergyMeter(kernel)
        accountant = FlowEnergyAccountant(meter)
        accountant.set_rate("rx", "a", 500_000)
        accountant.set_rate("rx", "b", 500_000)
        assert accountant.total("rx") == 1_000_000
        draws = meter.active_components()
        expected_duty = 1_000_000 / REFERENCE_RATE_BPS + 0.02
        assert draws["wifi.flow-rx"] == pytest.approx(WIFI_RECEIVE_MA * expected_duty)

    def test_wake_floor_not_stacked_across_flows(self, kernel):
        """Ten trickles wake one radio, not ten — the aggregation fix."""
        meter = EnergyMeter(kernel)
        accountant = FlowEnergyAccountant(meter)
        for index in range(10):
            accountant.set_rate("rx", f"flow-{index}", 10.0)
        single = flow_draw_ma(100.0, WIFI_RECEIVE_MA)
        assert meter.active_components()["wifi.flow-rx"] == pytest.approx(single)

    def test_surcharge_computed_on_combined_duty(self, kernel):
        meter = EnergyMeter(kernel)
        accountant = FlowEnergyAccountant(meter)
        accountant.set_rate("tx", "a", REFERENCE_RATE_BPS)
        accountant.set_rate("rx", "b", REFERENCE_RATE_BPS)
        assert meter.active_components()["wifi.flow-cpu"] == pytest.approx(
            SATURATION_EXTRA_MA
        )

    def test_zero_rate_removes_flow(self, kernel):
        meter = EnergyMeter(kernel)
        accountant = FlowEnergyAccountant(meter)
        accountant.set_rate("tx", "a", 1000.0)
        accountant.set_rate("tx", "a", 0.0)
        assert accountant.total("tx") == 0.0
        assert meter.active_components().get("wifi.flow-tx", 0.0) == 0.0

    @given(st.lists(
        st.tuples(
            st.sampled_from(["tx", "rx"]),
            st.sampled_from(["a", "b", "c", "d"]),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-3, max_value=1e8, allow_nan=False),
            ),
        ),
        max_size=40,
    ))
    def test_property_totals_match_one_combined_dict(self, updates):
        """Each direction's total adds the same floats, in the same order, as
        a filter over one ``(direction, key)`` dict would: the meter draws
        (and so every digest) cannot tell the two layouts apart."""
        accountant = FlowEnergyAccountant(EnergyMeter(Kernel(seed=0)))
        combined = {}
        for direction, key, rate in updates:
            accountant.set_rate(direction, key, rate)
            if rate <= 0.0:
                combined.pop((direction, key), None)
            else:
                combined[(direction, key)] = rate
            for side in ("tx", "rx"):
                assert accountant.total(side) == sum(
                    value for (item_side, _), value in combined.items()
                    if item_side == side
                )

    def test_invalid_direction_rejected(self, kernel):
        accountant = FlowEnergyAccountant(EnergyMeter(kernel))
        with pytest.raises(ValueError):
            accountant.set_rate("sideways", "a", 1.0)

    def test_accountant_for_is_per_meter(self, kernel):
        meter_a = EnergyMeter(kernel, "a")
        meter_b = EnergyMeter(kernel, "b")
        assert accountant_for(meter_a) is accountant_for(meter_a)
        assert accountant_for(meter_a) is not accountant_for(meter_b)


    def test_finished_testbeds_are_freed(self):
        # Each accountant holds its meter strongly, so a registry keyed
        # weakly by meter never let go of one: every meter that carried a
        # flow, and through meter.kernel its whole testbed, stayed alive.
        before = [obj for obj in gc.get_objects() if isinstance(obj, Kernel)]
        for job in jobs_for("table5"):
            job.run()
        gc.collect()
        survivors = [
            obj for obj in gc.get_objects()
            if isinstance(obj, Kernel) and not any(obj is old for old in before)
        ]
        assert survivors == []


class TestBinders:
    def test_binder_keys_are_unique(self, kernel):
        meter = EnergyMeter(kernel)
        a = sender_binder(meter)
        b = sender_binder(meter)
        assert a.key != b.key

    def test_binder_updates_and_release(self, kernel):
        meter = EnergyMeter(kernel)
        binder = receiver_binder(meter)
        binder(1_000_000)
        assert meter.active_components()["wifi.flow-rx"] > 0
        binder.release()
        assert meter.active_components().get("wifi.flow-rx", 0.0) == 0.0

    def test_multicast_binder_scales_airtime(self, kernel):
        meter_a = EnergyMeter(kernel, "a")
        meter_b = EnergyMeter(kernel, "b")
        unicast = receiver_binder(meter_a)
        multicast = multicast_receiver_binder(meter_b)
        rate = 50_000.0
        unicast(rate)
        multicast(rate)
        assert (
            meter_b.active_components()["wifi.flow-rx"]
            > meter_a.active_components()["wifi.flow-rx"]
        )
