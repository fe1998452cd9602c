"""Tests for the metrics layer (voice, data, collector, statistics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationParameters
from repro.mac.requests import Allocation, FrameOutcome
from repro.metrics.collector import MetricsCollector
from repro.metrics.data import DataMetrics
from repro.metrics.stats import RunningStatistics, batch_means_confidence_interval
from repro.metrics.voice import VoiceMetrics
from tests.utils import make_population

PARAMS = SimulationParameters()


class TestVoiceMetrics:
    def test_loss_rate_combines_drops_and_errors(self):
        metrics = VoiceMetrics(generated=1000, delivered=980, errored=5, dropped=15)
        assert metrics.lost == 20
        assert metrics.loss_rate == pytest.approx(0.02)
        assert metrics.dropping_rate == pytest.approx(0.015)
        assert metrics.error_rate == pytest.approx(0.005)

    def test_quality_threshold(self):
        assert VoiceMetrics(1000, 995, 2, 3).meets_quality(0.01)
        assert not VoiceMetrics(1000, 900, 50, 50).meets_quality(0.01)

    def test_zero_generated(self):
        metrics = VoiceMetrics(0, 0, 0, 0)
        assert metrics.loss_rate == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VoiceMetrics(-1, 0, 0, 0)

    def test_from_population(self):
        population = make_population(voice=[1], data=[3])
        population.voice_generated[0] = 10
        population.voice_delivered[0] = 8
        population.voice_errored[0] = 1
        population.voice_dropped[0] = 1
        metrics = VoiceMetrics.from_population(population)
        assert metrics.generated == 10 and metrics.lost == 2

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_rates_bounded_property(self, delivered, errored, dropped):
        generated = delivered + errored + dropped
        metrics = VoiceMetrics(generated, delivered, errored, dropped)
        assert 0.0 <= metrics.loss_rate <= 1.0


class TestDataMetrics:
    def _metrics(self, delivered=200, n_frames=100, delays=(2, 4, 6)):
        return DataMetrics(generated=300, delivered=delivered, retransmissions=5,
                           delay_frames=list(delays), n_frames=n_frames,
                           frame_duration_s=PARAMS.frame_duration_s)

    def test_throughput(self):
        metrics = self._metrics(delivered=200, n_frames=100)
        assert metrics.throughput_packets_per_frame == pytest.approx(2.0)
        assert metrics.throughput_packets_per_second == pytest.approx(800.0)

    def test_delay_conversion(self):
        metrics = self._metrics(delays=(4, 8))
        assert metrics.mean_delay_frames == pytest.approx(6.0)
        assert metrics.mean_delay_s == pytest.approx(0.015)
        assert metrics.p95_delay_s >= metrics.mean_delay_s * 0.9

    def test_qos_check(self):
        metrics = self._metrics(delivered=200, n_frames=100, delays=(4,))
        assert metrics.meets_qos(max_delay_s=1.0, min_throughput_per_user=0.25, n_users=4)
        assert not metrics.meets_qos(max_delay_s=0.001, min_throughput_per_user=0.25, n_users=4)
        assert not metrics.meets_qos(max_delay_s=1.0, min_throughput_per_user=1.0, n_users=4)

    def test_empty_delays(self):
        metrics = self._metrics(delays=())
        assert metrics.mean_delay_s == 0.0
        assert metrics.p95_delay_s == 0.0

    def test_delivery_ratio(self):
        assert self._metrics(delivered=150).delivery_ratio == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._metrics(n_frames=-1)
        with pytest.raises(ValueError):
            DataMetrics(1, 1, 0, [], 10, 0.0)


class TestRunningStatistics:
    def test_matches_numpy(self):
        values = np.random.default_rng(0).normal(size=500)
        stats = RunningStatistics()
        stats.update_many(values)
        assert stats.count == 500
        assert stats.mean == pytest.approx(float(np.mean(values)))
        assert stats.std == pytest.approx(float(np.std(values, ddof=1)), rel=1e-9)
        assert stats.minimum == pytest.approx(float(values.min()))
        assert stats.maximum == pytest.approx(float(values.max()))

    def test_empty(self):
        stats = RunningStatistics()
        assert stats.mean == 0.0 and stats.variance == 0.0


class TestBatchMeans:
    def test_constant_series_zero_halfwidth(self):
        mean, half = batch_means_confidence_interval([3.0] * 100, n_batches=10)
        assert mean == pytest.approx(3.0)
        assert half == pytest.approx(0.0)

    def test_mean_recovered(self):
        rng = np.random.default_rng(1)
        data = rng.normal(loc=5.0, size=2000)
        mean, half = batch_means_confidence_interval(data, n_batches=10)
        assert abs(mean - 5.0) < half + 0.2
        assert half > 0.0

    def test_short_series(self):
        mean, half = batch_means_confidence_interval([1.0, 2.0], n_batches=10)
        assert mean == pytest.approx(1.5)
        assert half == 0.0

    def test_empty_series(self):
        assert batch_means_confidence_interval([], 10) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_means_confidence_interval([1.0], n_batches=0)
        with pytest.raises(ValueError):
            batch_means_confidence_interval([1.0], confidence=1.5)


class TestMetricsCollector:
    def _outcome(self, slots=2, queued=1):
        outcome = FrameOutcome(frame_index=0)
        outcome.allocations.append(
            Allocation(terminal_id=0, n_slots=slots, packet_capacity=slots)
        )
        outcome.contention_attempts = 3
        outcome.contention_collisions = 1
        outcome.idle_request_slots = 2
        outcome.queued_requests = queued
        return outcome

    def test_accumulates_frames(self):
        collector = MetricsCollector(PARAMS, info_slots_per_frame=8)
        for _ in range(4):
            collector.record_frame(self._outcome(), data_delivered=3, voice_losses=1)
        stats = collector.mac_stats()
        assert stats.n_frames == 4
        assert stats.allocated_slots == 8
        assert stats.contention_attempts == 12
        assert stats.slot_utilisation == pytest.approx(8 / 32)
        assert stats.mean_queue_length == pytest.approx(1.0)
        assert collector.data_delivered_per_frame == [3, 3, 3, 3]
        assert collector.voice_loss_events_per_frame == [1, 1, 1, 1]

    def test_reset_clears(self):
        collector = MetricsCollector(PARAMS, info_slots_per_frame=8)
        collector.record_frame(self._outcome(), 1, 0)
        collector.reset()
        assert collector.n_frames == 0
        assert collector.mac_stats().allocated_slots == 0

    def test_negative_counters_rejected(self):
        collector = MetricsCollector(PARAMS, info_slots_per_frame=8)
        with pytest.raises(ValueError):
            collector.record_frame(self._outcome(), data_delivered=-1, voice_losses=0)

    def test_population_aggregation(self):
        collector = MetricsCollector(PARAMS, info_slots_per_frame=8)
        collector.record_frame(self._outcome(), 0, 0)
        population = make_population(voice=[1], data=[2])
        assert collector.voice_metrics(population).generated == 1
        assert collector.data_metrics(population).generated == 2
