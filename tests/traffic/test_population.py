"""Unit tests of the struct-of-arrays terminal population."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationParameters
from repro.traffic.population import TerminalPopulation
from tests.utils import make_population

PARAMS = SimulationParameters()


def fresh(n_voice=6, n_data=3, seed=42):
    return TerminalPopulation(PARAMS, n_voice, n_data, np.random.default_rng(seed))


class TestTransmit:
    def test_voice_transmit_outcomes(self):
        population = fresh(n_voice=1, n_data=0, seed=1)
        frame = 0
        while population.occupancy[0] == 0:
            population.advance_frame(frame)
            frame += 1
        taken = population.transmit(0, max_packets=3, n_delivered=0, current_frame=frame)
        assert taken == 1  # voice buffers hold at most the head-of-line packet
        assert population.voice_errored[0] == 1
        assert population.voice_loss_total == 1
        assert population.occupancy[0] == 0
        assert population.head_created[0] == -1

    def test_data_transmit_records_delays_and_retransmissions(self):
        population = fresh(n_voice=0, n_data=1, seed=5)
        frame = 0
        while population.occupancy[0] == 0:
            population.advance_frame(frame)
            frame += 1
        burst_frame = frame - 1  # the loop increments past the burst frame
        occupancy = int(population.occupancy[0])
        # Deliver two of four transmitted packets three frames later.
        later = burst_frame + 3
        n_transmitted = min(4, occupancy)
        taken = population.transmit(
            0, max_packets=4, n_delivered=2, current_frame=later
        )
        assert taken == 2  # data pops only delivered packets
        assert population.data_delivered[0] == 2
        assert population.data_retransmissions[0] == n_transmitted - 2
        assert population.data_delays(0) == [3, 3]
        assert population.occupancy[0] == occupancy - 2

    def test_transmit_validates_arguments(self):
        population = fresh(n_voice=1, n_data=0)
        with pytest.raises(ValueError):
            population.transmit(0, max_packets=-1, n_delivered=0, current_frame=0)
        with pytest.raises(ValueError):
            population.transmit(0, max_packets=2, n_delivered=5, current_frame=0)


class TestMeasurementWindow:
    def test_pre_window_packets_excluded_from_outcomes(self):
        population = fresh(n_voice=0, n_data=1, seed=5)
        frame = 0
        while population.occupancy[0] == 0:
            population.advance_frame(frame)
            frame += 1
        backlog = int(population.occupancy[0])
        population.begin_measurement(frame + 1)
        assert population.data_generated[0] == 0
        delivered = min(3, backlog)
        population.transmit(
            0, max_packets=delivered, n_delivered=delivered,
            current_frame=frame + 2,
        )
        # The backlog predates the window: nothing is counted.
        assert population.data_delivered[0] == 0
        assert population.data_delays(0) == []
        assert population.occupancy[0] == backlog - delivered

    def test_pre_window_voice_drops_not_counted(self):
        population = fresh(n_voice=1, n_data=0, seed=1)
        frame = 0
        while population.occupancy[0] == 0:
            population.advance_frame(frame)
            frame += 1
        population.begin_measurement(frame + 1)
        dropped = population.drop_expired(frame + PARAMS.voice_deadline_frames)
        assert dropped == 1  # removed from the buffer...
        assert population.voice_dropped[0] == 0  # ...but not counted
        assert population.voice_loss_total == 0


class TestConstruction:
    def test_counts_and_ordering(self):
        population = fresh(n_voice=3, n_data=2, seed=0)
        assert len(population) == population.n_terminals == 5
        assert population.is_voice.tolist() == [True, True, True, False, False]
        assert population.is_data_mask.tolist() == [False, False, False, True, True]

    def test_empty_population(self):
        population = fresh(n_voice=0, n_data=0, seed=0)
        assert len(population) == 0
        population.advance_frame(0)
        assert population.drop_expired(0) == 0

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            TerminalPopulation(PARAMS, -1, 0, np.random.default_rng(0))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
    def test_population_size_property(self, nv, nd):
        population = fresh(n_voice=nv, n_data=nd, seed=2)
        assert len(population) == nv + nd
        assert int(population.is_voice.sum()) == nv


class TestForcedState:
    def test_imported_state_is_what_the_mac_reads(self):
        population = make_population(voice=[1, 0], data=[7], talking=[True, False])
        assert population.occupancy.tolist() == [1, 0, 7]
        assert population.in_talkspurt.tolist() == [True, False, False]
        assert population.head_created.tolist() == [0, -1, 0]
        assert population.voice_generated.sum() == 1
        assert population.data_generated.sum() == 7
