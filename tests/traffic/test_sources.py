"""Statistical checks of the voice and data traffic sources.

The sources live inside :class:`~repro.traffic.population.TerminalPopulation`:
voice terminals alternate exponential talkspurts and silences and emit one
packet per 20 ms of talkspurt; data terminals receive bursts of exponential
size at exponential inter-arrival times.  These tests drive populations
frame by frame and check the long-run statistics against the parameters.
"""

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.traffic.population import TerminalPopulation

PARAMS = SimulationParameters()

#: Mean on/off cycle of a voice source, in seconds.
VOICE_CYCLE_S = PARAMS.mean_talkspurt_s + PARAMS.mean_silence_s


def run_voice(seed=0, n_voice=40, frames=5000):
    """Drive a voice-only population; return it plus per-frame tallies."""
    population = TerminalPopulation(PARAMS, n_voice, 0, np.random.default_rng(seed))
    talkspurt_frames = starts = 0
    talking = population.in_talkspurt.copy()
    for frame in range(frames):
        population.advance_frame(frame)
        population.drop_expired(frame)
        now = population.in_talkspurt
        talkspurt_frames += int(now.sum())
        starts += int((now & ~talking).sum())
        talking = now.copy()
    return population, talkspurt_frames, starts


def run_data(seed=0, n_data=40, frames=10000):
    """Drive a data-only population; return it plus the burst count."""
    population = TerminalPopulation(PARAMS, 0, n_data, np.random.default_rng(seed))
    bursts = 0
    generated = population.data_generated.copy()
    for frame in range(frames):
        population.advance_frame(frame)
        now = population.data_generated
        bursts += int((now > generated).sum())
        generated = now.copy()
    return population, bursts


class TestVoiceSources:
    def test_long_run_activity_fraction(self):
        _, talkspurt_frames, _ = run_voice(seed=1)
        fraction = talkspurt_frames / (40 * 5000)
        assert fraction == pytest.approx(PARAMS.mean_talkspurt_s / VOICE_CYCLE_S, abs=0.06)

    def test_packet_rate_during_talkspurt(self):
        """One packet per 20 ms, i.e. one packet every 8 frames of talkspurt."""
        population, talkspurt_frames, _ = run_voice(seed=2)
        expected = talkspurt_frames / PARAMS.frames_per_voice_period
        assert population.voice_generated.sum() == pytest.approx(expected, rel=0.05)

    def test_talkspurt_start_events_counted(self):
        _, _, starts = run_voice(seed=4)
        # 40 terminals x 12.5 s; one on/off cycle lasts ~2.35 s on average.
        expected = 40 * 5000 * PARAMS.frame_duration_s / VOICE_CYCLE_S
        assert starts == pytest.approx(expected, rel=0.25)

    def test_packets_expire_at_their_deadline(self):
        population = TerminalPopulation(PARAMS, 1, 0, np.random.default_rng(3))
        frame = 0
        while population.occupancy[0] == 0:
            population.advance_frame(frame)
            frame += 1
        created = int(population.head_created[0])
        deadline = created + PARAMS.voice_deadline_frames
        assert population.drop_expired(deadline - 1) == 0
        assert population.drop_expired(deadline) == 1
        assert population.voice_dropped[0] == 1

    def test_calls_start_silent(self):
        """Calls begin in silence so the protocols never face a synchronised
        cold-start burst of contention (talkspurts ramp up during warm-up)."""
        population = TerminalPopulation(PARAMS, 50, 0, np.random.default_rng(6))
        assert not population.in_talkspurt.any()
        population.advance_frame(0)
        assert population.voice_generated.sum() == 0

    def test_negative_frame_rejected(self):
        population = TerminalPopulation(PARAMS, 1, 1, np.random.default_rng(7))
        with pytest.raises(ValueError):
            population.advance_frame(-1)

    def test_reproducible(self):
        a = run_voice(seed=8, n_voice=5, frames=2000)[0]
        b = run_voice(seed=8, n_voice=5, frames=2000)[0]
        assert a.voice_generated.tolist() == b.voice_generated.tolist()
        assert a.voice_dropped.tolist() == b.voice_dropped.tolist()


class TestDataSources:
    def test_long_run_rate_matches_offered_load(self):
        # 100 packets per second on average = 0.25 packets per 2.5 ms frame.
        offered = PARAMS.mean_data_burst_packets * PARAMS.frame_duration_s / (
            PARAMS.mean_data_interarrival_s
        )
        assert offered == pytest.approx(0.25)
        population, _ = run_data(seed=1)
        rate = population.data_generated.sum() / (40 * 10000)
        assert rate == pytest.approx(offered, rel=0.25)

    def test_burst_sizes_exponential_mean(self):
        population, bursts = run_data(seed=2)
        assert bursts > 0
        mean_burst = population.data_generated.sum() / bursts
        assert mean_burst == pytest.approx(PARAMS.mean_data_burst_packets, rel=0.3)

    def test_burst_arrives_whole_at_a_frame_boundary(self):
        population = TerminalPopulation(PARAMS, 0, 1, np.random.default_rng(4))
        frame = 0
        while population.occupancy[0] == 0:
            population.advance_frame(frame)
            frame += 1
        assert population.head_created[0] == frame - 1
        assert population.occupancy[0] == population.data_generated[0] >= 1

    def test_data_packets_never_expire(self):
        population, _ = run_data(seed=3, n_data=4, frames=4000)
        backlog = population.occupancy.copy()
        assert backlog.sum() > 0
        assert population.drop_expired(100000) == 0
        assert population.occupancy.tolist() == backlog.tolist()

    def test_reproducible(self):
        a = run_data(seed=6, n_data=5, frames=4000)[0]
        b = run_data(seed=6, n_data=5, frames=4000)[0]
        assert a.data_generated.tolist() == b.data_generated.tolist()
