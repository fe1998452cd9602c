"""Interference coupling: offsets math, SNR injection, error labelling."""

import numpy as np
import pytest

from repro.channel.doppler import DopplerModel
from repro.channel.manager import ChannelManager
from repro.config import SimulationParameters
from repro.constellation import (
    ConstellationScenario,
    beam_busy_load,
    interference_offsets,
    run_constellation,
)

PARAMS = SimulationParameters()


def make_manager(beam=None):
    return ChannelManager(
        n_users=4,
        doppler=DopplerModel(speed_kmh=3.0),
        frame_duration_s=PARAMS.frame_duration_s,
        rng=np.random.default_rng(0),
        mean_snr_db=PARAMS.mean_snr_db,
        beam=beam,
    )


class TestInterferenceOffsets:
    def test_zero_without_coupling_or_single_beam(self):
        assert (interference_offsets(np.array([0.5]), 1, 3.0) == 0.0).all()
        assert (interference_offsets(np.array([0.5, 0.8]), 1, 0.0) == 0.0).all()

    def test_full_cochannel_load_costs_coupling_db(self):
        offsets = interference_offsets(np.array([1.0, 1.0, 1.0]), 1, 3.0)
        assert offsets == pytest.approx([3.0, 3.0, 3.0])

    def test_mean_of_other_beams_not_self(self):
        # Beam 0 idle, beam 1 fully loaded, same reuse group: beam 0 sees
        # the full penalty, beam 1 sees none (its only peer is idle).
        offsets = interference_offsets(np.array([0.0, 1.0]), 1, 4.0)
        assert offsets == pytest.approx([4.0, 0.0])

    def test_reuse_partitioning(self):
        # reuse_factor=2 over 4 beams: groups {0,2} and {1,3}.
        loads = np.array([1.0, 0.0, 0.0, 1.0])
        offsets = interference_offsets(loads, 2, 2.0)
        assert offsets == pytest.approx([0.0, 2.0, 2.0, 0.0])

    def test_busy_load_counts_talkspurts_and_queues(self):
        in_talkspurt = np.array([True, False, False, False])
        occupancy = np.array([0, 3, 0, 0])
        assert beam_busy_load(in_talkspurt, occupancy) == pytest.approx(0.5)
        assert beam_busy_load(np.zeros(0, bool), np.zeros(0, int)) == 0.0


class TestChannelInjection:
    def test_penalty_shifts_snr_by_exactly_that_many_db(self):
        clean = make_manager()
        noisy = make_manager()
        noisy.set_interference_db(6.0)
        snap_clean = clean.snapshot()
        snap_noisy = noisy.snapshot()
        for user in range(4):
            delta = snap_clean.read(user, snr_db=True) - snap_noisy.read(
                user, snr_db=True
            )
            assert delta == pytest.approx(6.0)
            ratio = snap_noisy.read(user) / snap_clean.read(user)
            assert ratio == pytest.approx(10.0 ** (-6.0 / 20.0))

    def test_zero_penalty_is_bit_exact(self):
        reference = make_manager()
        gated = make_manager()
        gated.set_interference_db(0.0)
        for user in range(4):
            assert gated.snapshot().read(user) == reference.snapshot().read(user)

    def test_penalty_must_be_finite_non_negative(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            manager.set_interference_db(-1.0)
        with pytest.raises(ValueError):
            manager.set_interference_db(float("nan"))

    def test_snapshot_errors_carry_beam_and_local_id(self):
        sharded = make_manager(beam=7)
        with pytest.raises(IndexError, match=r"beam 7, local_id 99"):
            sharded.snapshot().read(99)
        plain = make_manager()
        with pytest.raises(IndexError, match=r"user_id 99"):
            plain.snapshot().read(99, snr_db=True)

    def test_population_errors_carry_beam_and_local_id(self):
        from repro.traffic.population import TerminalPopulation

        population = TerminalPopulation(
            PARAMS, 2, 1, np.random.default_rng(0), beam=3
        )
        with pytest.raises(IndexError, match=r"beam 3, local_id 9"):
            population.export_terminal_state(9)


class TestCoupledBehaviour:
    def test_interference_degrades_aggregate_quality_or_throughput(self):
        base = dict(
            protocol="charisma", n_beams=4, n_voice=20, n_data=6,
            duration_s=1.0, warmup_s=0.2, seed=9, macro_frames=8,
        )
        quiet = run_constellation(
            ConstellationScenario(**base), PARAMS
        ).merged
        loud = run_constellation(
            ConstellationScenario(coupling_db=20.0, reuse_factor=1, **base),
            PARAMS,
        ).merged
        # A 20 dB co-channel penalty must not *improve* the constellation.
        assert loud.voice.loss_rate >= quiet.voice.loss_rate
        assert (
            loud.data.throughput_packets_per_frame
            <= quiet.data.throughput_packets_per_frame
            or loud.voice.loss_rate > quiet.voice.loss_rate
        )
