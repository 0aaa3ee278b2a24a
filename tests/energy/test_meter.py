"""Energy meter: piecewise-constant integration."""

import pytest
from hypothesis import given, strategies as st

from repro.energy.meter import EnergyMeter
from repro.sim.kernel import Kernel


def test_no_draw_no_charge(kernel):
    meter = EnergyMeter(kernel)
    kernel.run_until(100.0)
    assert meter.total_charge_mas() == 0.0


def test_constant_draw_integrates_linearly(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("radio", 10.0)
    kernel.run_until(5.0)
    assert meter.total_charge_mas() == pytest.approx(50.0)


def test_draws_sum_across_components(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("a", 10.0)
    meter.set_draw("b", 20.0)
    assert meter.current_ma == 30.0
    kernel.run_until(2.0)
    assert meter.total_charge_mas() == pytest.approx(60.0)


def test_set_draw_zero_removes_component(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("a", 10.0)
    kernel.run_until(1.0)
    meter.set_draw("a", 0.0)
    kernel.run_until(10.0)
    assert meter.total_charge_mas() == pytest.approx(10.0)
    assert meter.active_components() == {}


def test_draw_token_release(kernel):
    meter = EnergyMeter(kernel)
    token = meter.draw("op", 100.0)
    kernel.run_until(0.5)
    token.release()
    token.release()  # idempotent
    kernel.run_until(10.0)
    assert meter.total_charge_mas() == pytest.approx(50.0)


def test_draw_token_as_context_manager(kernel):
    meter = EnergyMeter(kernel)
    with meter.draw("op", 10.0):
        kernel.run_until(1.0)
    kernel.run_until(5.0)
    assert meter.total_charge_mas() == pytest.approx(10.0)


def test_duplicate_component_rejected(kernel):
    meter = EnergyMeter(kernel)
    meter.draw("op", 1.0)
    with pytest.raises(ValueError):
        meter.draw("op", 2.0)


def test_negative_draw_rejected(kernel):
    meter = EnergyMeter(kernel)
    with pytest.raises(ValueError):
        meter.set_draw("x", -1.0)


def test_timed_draw_auto_releases(kernel):
    meter = EnergyMeter(kernel)
    meter.timed_draw("pulse", 183.3, 0.04)
    kernel.run_until(1.0)
    assert meter.total_charge_mas() == pytest.approx(183.3 * 0.04)
    assert meter.current_ma == 0.0


def test_snapshot_windowed_average(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("base", 5.0)
    kernel.run_until(10.0)
    snapshot = meter.snapshot()
    meter.set_draw("extra", 15.0)
    kernel.run_until(20.0)
    assert snapshot.elapsed() == pytest.approx(10.0)
    assert snapshot.charge_since() == pytest.approx(200.0)
    assert meter.average_ma(since=snapshot) == pytest.approx(20.0)


def test_peak_tracking(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("a", 10.0)
    meter.timed_draw("spike", 90.0, 0.1)
    kernel.run_until(1.0)
    assert meter.peak_ma == pytest.approx(100.0)
    meter.reset_peak()
    assert meter.peak_ma == pytest.approx(10.0)


def test_average_ma_at_zero_elapsed_is_current(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("x", 7.0)
    snapshot = meter.snapshot()
    assert meter.average_ma(since=snapshot) == pytest.approx(7.0)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10),
                          st.floats(min_value=0, max_value=50)),
                min_size=1, max_size=20))
def test_property_charge_equals_sum_of_segments(segments):
    kernel = Kernel(seed=0)
    meter = EnergyMeter(kernel)
    expected = 0.0
    for duration, draw in segments:
        meter.set_draw("only", draw)
        start = kernel.now
        kernel.run_until(start + duration)
        expected += draw * duration
    assert meter.total_charge_mas() == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
def test_property_charge_is_monotonic(draws):
    kernel = Kernel(seed=0)
    meter = EnergyMeter(kernel)
    last = 0.0
    for index, draw in enumerate(draws):
        meter.set_draw("c", draw)
        kernel.run_until(kernel.now + 1.0)
        charge = meter.total_charge_mas()
        assert charge >= last - 1e-12
        last = charge


# -- the redesigned average_ma surface ----------------------------------------


def test_average_ma_two_float_form_is_gone(kernel):
    # The keyword-only signature rejects the old two-float positional form
    # average_ma(since_time, since_charge_mas) outright.
    meter = EnergyMeter(kernel)
    meter.set_draw("x", 4.0)
    kernel.run_until(5.0)
    with pytest.raises(TypeError):
        meter.average_ma(0.0, 0.0)


def test_average_ma_rejects_legacy_kwargs_and_missing_since(kernel):
    meter = EnergyMeter(kernel)
    snapshot = meter.snapshot()
    with pytest.raises(TypeError):
        meter.average_ma(since_time=0.0, since_charge_mas=0.0, since=snapshot)
    with pytest.raises(TypeError):
        meter.average_ma()


# -- the opt-in component timeline --------------------------------------------


def test_timeline_off_by_default(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("x", 1.0)
    assert not meter.timeline_enabled
    assert meter.timeline_events() == []


def test_timeline_records_transitions(kernel):
    meter = EnergyMeter(kernel)
    meter.enable_timeline()
    meter.enable_timeline()  # idempotent
    meter.set_draw("radio", 10.0)
    kernel.run_until(1.0)
    with meter.draw("op", 90.0):
        kernel.run_until(1.5)
    assert meter.timeline_events() == [
        (0.0, "radio", 10.0),
        (1.0, "op", 90.0),
        (1.5, "op", 0.0),
    ]


def test_timeline_seeds_with_active_draws(kernel):
    meter = EnergyMeter(kernel)
    meter.set_draw("standby", 3.0)
    kernel.run_until(2.0)
    meter.enable_timeline()
    assert meter.timeline_events() == [(2.0, "standby", 3.0)]


def test_timeline_payload_shape(kernel):
    meter = EnergyMeter(kernel, name="relay")
    meter.enable_timeline()
    meter.set_draw("x", 1.0)
    payload = meter.timeline_payload()
    assert payload["format"] == "repro.energy.timeline/v1"
    assert payload["device"] == "relay"
    assert payload["events"] == [(0.0, "x", 1.0)]
