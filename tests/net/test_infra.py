"""Mock infrastructure server."""

import pytest

from repro.net.infra import InfrastructureServer


def test_download_duration_matches_rate(kernel, make_device):
    infra = InfrastructureServer(kernel)
    device = make_device("a")
    completion = infra.download(device.meter, 30_000_000, 100_000.0)
    kernel.run_until_complete(completion, timeout=1000)
    assert kernel.now == pytest.approx(300.0)


def test_download_charges_receive_energy(kernel, make_device):
    infra = InfrastructureServer(kernel)
    meter = make_device("a").meter
    snapshot = meter.snapshot()
    completion = infra.download(meter, 100_000, 100_000.0)
    kernel.run_until_complete(completion, timeout=10)
    from repro.energy.constants import WIFI_STANDBY_MA

    # Above standby there must be a receive-duty draw for the second.
    assert meter.average_ma(since=snapshot) - WIFI_STANDBY_MA > 1.0
    # And it stops afterwards.
    after = meter.snapshot()
    kernel.run_until(kernel.now + 10)
    assert meter.average_ma(since=after) - WIFI_STANDBY_MA == pytest.approx(
        0.0, abs=1e-6
    )


def test_bytes_served_accumulates(kernel, make_device):
    infra = InfrastructureServer(kernel)
    device = make_device("a")
    kernel.run_until_complete(infra.download(device.meter, 5000, 1000.0), timeout=10)
    kernel.run_until_complete(infra.download(device.meter, 3000, 1000.0), timeout=10)
    assert infra.bytes_served == 8000


def test_invalid_rate_rejected(kernel, make_device):
    infra = InfrastructureServer(kernel)
    with pytest.raises(ValueError):
        infra.download(make_device("a").meter, 100, 0.0)
