"""Cache configuration."""

import dataclasses
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.array import CacheGeometry
from repro.cache import CacheConfig
from repro.cache.config import (
    DEFAULT_L2_CAPACITY_BYTES,
    DEFAULT_L2_WAYS,
    default_l2_geometry,
)


class TestDefaults:
    def test_paper_values(self):
        config = CacheConfig()
        assert config.hit_latency_cycles == 3
        assert config.counter_bits == 3
        assert config.partial_refresh_threshold_cycles == 6000
        assert config.geometry.ways == 4

    def test_miss_latency_blend(self):
        config = CacheConfig(
            l2_latency_cycles=10, memory_latency_cycles=210, l2_miss_rate=0.1
        )
        assert config.miss_latency_cycles == pytest.approx(
            0.9 * 10 + 0.1 * 210
        )


class TestWithWays:
    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_changes_only_geometry(self, ways):
        config = CacheConfig().with_ways(ways)
        assert config.geometry.ways == ways
        assert config.hit_latency_cycles == 3
        assert config.partial_refresh_threshold_cycles == 6000


class TestGeometryDerivedFields:
    def test_hit_latency_reads_the_geometry(self):
        geometry = CacheGeometry.from_capacity(256 * 1024, 8, banks=8)
        config = CacheConfig(geometry=geometry)
        assert config.hit_latency_cycles == geometry.access_latency_cycles

    def test_explicit_hit_latency_still_overrides(self):
        assert CacheConfig(hit_latency_cycles=5).hit_latency_cycles == 5

    def test_with_geometry_rederives_latency(self):
        slow = CacheConfig().with_geometry(
            CacheGeometry.from_capacity(256 * 1024, 4, banks=2)
        )
        assert slow.hit_latency_cycles == slow.geometry.access_latency_cycles
        assert slow.hit_latency_cycles > 3

    def test_l2_geometry_concrete_by_default(self):
        config = CacheConfig()
        assert config.l2_geometry == default_l2_geometry()
        assert config.l2_geometry.size_bytes == DEFAULT_L2_CAPACITY_BYTES
        assert config.l2_geometry.ways == DEFAULT_L2_WAYS


class TestRemovedL2Keywords:
    # The scalar L2 fields are gone; passing them is an unknown keyword.
    def test_legacy_keywords_are_hard_errors(self):
        with pytest.raises(TypeError):
            CacheConfig(l2_capacity_bytes=1024 * 1024, l2_ways=8)

    def test_single_legacy_keyword_is_a_hard_error(self):
        with pytest.raises(TypeError):
            CacheConfig(l2_ways=8)

    def test_l2_geometry_keyword_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = CacheConfig(
                l2_geometry=CacheGeometry.from_capacity(1024 * 1024, 8)
            )
        assert config.l2_geometry.ways == 8

    def test_replace_round_trip_is_silent(self):
        # The resolved l2_geometry is passed back by dataclasses.replace.
        config = CacheConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replaced = dataclasses.replace(config, counter_bits=4)
        assert replaced.l2_geometry == config.l2_geometry


class TestValidation:
    def test_l2_must_exceed_hit_latency(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(hit_latency_cycles=5, l2_latency_cycles=5)

    def test_memory_must_exceed_l2(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(l2_latency_cycles=12, memory_latency_cycles=12)

    def test_miss_rate_range(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(l2_miss_rate=1.2)

    def test_counter_bits_positive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(counter_bits=0)

    def test_threshold_positive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(partial_refresh_threshold_cycles=0)

    def test_write_buffer_positive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(write_buffer_entries=0)
