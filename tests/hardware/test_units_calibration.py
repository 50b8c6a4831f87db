"""Unit tests: units helpers and the calibration profile."""

import pytest

from repro.hardware.calibration import Calibration, PAPER_CALIBRATION
from repro.units import (
    GiB,
    KiB,
    MiB,
    PAGE_SIZE,
    fmt_bytes,
    gbps,
    gib_per_s,
    msec,
    pages,
    usec,
)


def test_size_constants():
    assert KiB == 1024
    assert MiB == 1024 * 1024
    assert GiB == 1024 ** 3
    assert PAGE_SIZE == 4096


def test_rate_conversions():
    assert gbps(8.0) == pytest.approx(1e9)
    assert gib_per_s(1.0) == GiB


def test_time_helpers():
    assert usec(5) == pytest.approx(5e-6)
    assert msec(30) == pytest.approx(0.030)


def test_pages_rounds_up():
    assert pages(1) == 1
    assert pages(4096) == 1
    assert pages(4097) == 2
    assert pages(0) == 0


def test_formatting():
    assert fmt_bytes(20 * GiB) == "20.0 GiB"
    assert fmt_bytes(512) == "512 B"


# -- Calibration --------------------------------------------------------------


def test_table2_decomposition_matches_paper():
    """The hotplug decomposition reproduces Table II within 0.1 s."""
    cal = PAPER_CALIBRATION
    confirm, detach, attach = cal.hotplug_confirm_s, cal.ib_detach_s, cal.ib_attach_s
    assert confirm + detach + attach == pytest.approx(3.88, abs=0.1)
    assert confirm + detach == pytest.approx(2.80, abs=0.1)
    assert confirm + attach == pytest.approx(1.15, abs=0.1)
    assert confirm == pytest.approx(0.13, abs=0.1)


def test_linkup_near_30s():
    assert PAPER_CALIBRATION.ib_linkup_s == pytest.approx(29.85, abs=0.2)


def test_migration_cap_1_3_gbps():
    assert PAPER_CALIBRATION.migration_cpu_cap_Bps == pytest.approx(gbps(1.3))


def test_replace_is_pure():
    cal = PAPER_CALIBRATION
    variant = cal.replace(ib_linkup_s=1.0)
    assert variant.ib_linkup_s == 1.0
    assert cal.ib_linkup_s != 1.0
    assert variant.ib_detach_s == cal.ib_detach_s


def test_calibration_frozen():
    with pytest.raises(Exception):
        PAPER_CALIBRATION.ib_linkup_s = 5.0  # type: ignore[misc]
