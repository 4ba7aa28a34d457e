"""L2 model and write buffer."""

import pytest

from repro.errors import ConfigurationError
from repro.cache import L2Model, WriteBuffer


class TestWriteBuffer:
    def test_accepts_up_to_capacity_without_stall(self):
        buffer = WriteBuffer(capacity=4, drain_interval_cycles=100)
        stalls = [buffer.push(0) for _ in range(4)]
        assert sum(stalls) == 0

    def test_overflow_stalls(self):
        buffer = WriteBuffer(capacity=2, drain_interval_cycles=100)
        buffer.push(0)
        buffer.push(0)
        stall = buffer.push(0)
        assert stall == 100
        # The stalled push waited for one drain slot, then took it.
        assert buffer.occupancy == 2

    def test_drain_frees_slots(self):
        buffer = WriteBuffer(capacity=2, drain_interval_cycles=10)
        buffer.push(0)
        buffer.push(0)
        # 20 cycles later two entries have drained.
        assert buffer.push(20) == 0

    def test_burst_after_idle_fits(self):
        buffer = WriteBuffer(capacity=8, drain_interval_cycles=4)
        for _ in range(8):
            assert buffer.push(1000) == 0

    def test_out_of_order_pushes_tolerated(self):
        # Lazily-discovered expiry write-backs may arrive time-stamped in
        # the past; the buffer treats them as happening now.
        buffer = WriteBuffer(capacity=4, drain_interval_cycles=10)
        assert buffer.push(100) == 0
        assert buffer.push(50) == 0  # earlier stamp
        assert buffer.occupancy == 2

    def test_occupancy_tracks(self):
        buffer = WriteBuffer(capacity=4, drain_interval_cycles=100)
        buffer.push(0)
        buffer.push(0)
        assert buffer.occupancy == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WriteBuffer(capacity=0)
        with pytest.raises(ConfigurationError):
            WriteBuffer(drain_interval_cycles=0)


class TestL2Model:
    def test_average_latency_blend(self):
        l2 = L2Model(latency_cycles=12, memory_latency_cycles=212, miss_rate=0.1)
        assert l2.average_latency_cycles == pytest.approx(0.9 * 12 + 0.1 * 212)

    def test_read_counts_access(self):
        l2 = L2Model()
        latency = l2.read()
        assert latency == l2.average_latency_cycles
        assert l2.accesses == 1

    def test_write_counts(self):
        l2 = L2Model()
        l2.write()
        assert l2.writes == 1
        assert l2.accesses == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            L2Model(latency_cycles=0)
        with pytest.raises(ConfigurationError):
            L2Model(latency_cycles=20, memory_latency_cycles=10)
        with pytest.raises(ConfigurationError):
            L2Model(miss_rate=1.5)
