"""Direct unit tests for the simulation measurement primitives:
VirtualClock and TimeAccount — plus the account's mirroring into the
process-wide metrics registry."""

import pytest

from repro import obs
from repro.sim.actor import TimeAccount
from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=7.5).now == 7.5

    def test_advance_accumulates_and_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.25) == 1.75
        assert clock.now == 1.75

    def test_advance_negative_raises(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.001)

    def test_advance_zero_is_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_advance_to_is_monotonic(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0
        clock.advance_to(5.0)  # in the past: no-op
        assert clock.now == 10.0

    def test_repr_shows_time(self):
        assert "1.5" in repr(VirtualClock(start=1.5))


class TestTimeAccount:
    def test_charge_and_get(self):
        acct = TimeAccount()
        acct.charge("io", 2.0)
        acct.charge("io", 1.0)
        acct.charge("cpu", 0.5)
        assert acct.get("io") == 3.0
        assert acct.get("never") == 0.0
        assert acct.total() == 3.5

    def test_negative_charge_raises(self):
        with pytest.raises(ValueError):
            TimeAccount().charge("io", -1.0)

    def test_breakdown_is_a_copy(self):
        acct = TimeAccount()
        acct.charge("io", 1.0)
        acct.breakdown()["io"] = 99.0
        assert acct.get("io") == 1.0

    def test_clear(self):
        acct = TimeAccount()
        acct.charge("io", 1.0)
        acct.clear()
        assert acct.total() == 0.0

    def test_mirrors_into_registry(self):
        TimeAccount().charge("unit_test_cat", 2.5)
        assert obs.metrics().get("time_account_seconds_total",
                                 category="unit_test_cat") == 2.5

    def test_local_state_survives_disabled_registry(self):
        obs.disable()
        try:
            acct = TimeAccount()
            acct.charge("io", 1.5)
            assert acct.get("io") == 1.5  # facade stays authoritative
            assert obs.metrics().get("time_account_seconds_total",
                                     category="io") == 0.0
        finally:
            obs.enable()
