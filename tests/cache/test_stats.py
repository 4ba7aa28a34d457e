"""Cache statistics container."""

import pytest

from repro.cache import AccessOutcome, CacheStats


class TestDerivedMetrics:
    def test_accesses(self):
        stats = CacheStats(loads=10, stores=5)
        assert stats.accesses == 15

    def test_misses_sum_causes(self):
        stats = CacheStats(
            misses_cold=3, misses_expired=2, misses_dead_bypass=1
        )
        assert stats.misses == 6

    def test_miss_rate(self):
        stats = CacheStats(loads=10, misses_cold=2)
        assert stats.miss_rate == pytest.approx(0.2)

    def test_miss_rate_empty_window(self):
        assert CacheStats().miss_rate == 0.0

    def test_expired_miss_rate(self):
        stats = CacheStats(loads=10, misses_expired=1)
        assert stats.expired_miss_rate == pytest.approx(0.1)

    def test_port_accesses(self):
        stats = CacheStats(loads=10, stores=5, fills=4, writebacks=2)
        assert stats.port_accesses == 21

    def test_blocked_cycles(self):
        stats = CacheStats(refresh_blocked_cycles=10, move_blocked_cycles=6)
        assert stats.blocked_cycles == 16


class TestOutcomeEnum:
    def test_values(self):
        assert AccessOutcome.HIT.value == "hit"
        assert AccessOutcome.MISS_EXPIRED.value == "miss_expired"
        assert AccessOutcome.MISS_DEAD_BYPASS.value == "miss_dead_bypass"
