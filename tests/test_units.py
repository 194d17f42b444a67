"""Tests for unit conversion helpers."""

import pytest

from repro import units


class TestTimeConversions:
    def test_seconds_to_milliseconds(self):
        assert units.seconds(1.5) == 1500.0

    def test_minutes_to_milliseconds(self):
        assert units.minutes(10) == 600_000.0


class TestBandwidthConversions:
    def test_gbps(self):
        assert units.gbps(1) == 1000.0


class TestFiberDelay:
    def test_zero_distance_has_zero_delay(self):
        assert units.fiber_delay_ms(0.0) == 0.0

    def test_thousand_kilometres_is_about_five_milliseconds(self):
        # 2/3 speed of light: roughly 5 ms per 1000 km.
        assert units.fiber_delay_ms(1000.0) == pytest.approx(5.0, rel=0.01)

    def test_delay_scales_linearly(self):
        assert units.fiber_delay_ms(200.0) == pytest.approx(2 * units.fiber_delay_ms(100.0))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            units.fiber_delay_ms(-1.0)

    def test_fiber_speed_is_two_thirds_of_light(self):
        assert units.FIBER_SPEED_KM_PER_MS == pytest.approx(
            units.SPEED_OF_LIGHT_KM_PER_MS * 2.0 / 3.0
        )
