"""Frame-level behavioural tests of the CHARISMA protocol."""

import numpy as np
import pytest

from repro.core.charisma import CharismaProtocol
from repro.mac.contention import run_contention_ids
from repro.mac.registry import build_modem, create_protocol
from repro.phy.csi import CSIEstimator
from repro.phy.fixed import FixedRateModem
from repro.sim.macro import BlockDraws
from tests.utils import (
    PARAMS, make_population, make_snapshot, run_protocol_frame, run_single_frame,
)

EAGER = PARAMS.with_overrides(
    voice_permission_probability=1.0, data_permission_probability=1.0
)


def charisma(use_queue=False, params=EAGER, seed=0, **kwargs):
    modem = build_modem("charisma", params)
    return CharismaProtocol(
        params, modem, np.random.default_rng(seed),
        use_request_queue=use_queue,
        csi_estimator=CSIEstimator(perfect=True, rng=np.random.default_rng(seed)),
        **kwargs,
    )


class TestConstruction:
    def test_requires_adaptive_phy(self):
        with pytest.raises(ValueError):
            CharismaProtocol(EAGER, FixedRateModem(), np.random.default_rng(0))

    def test_registry_builds_charisma(self):
        protocol = create_protocol("charisma", EAGER, np.random.default_rng(0))
        assert isinstance(protocol, CharismaProtocol)
        assert protocol.uses_csi_scheduling

    def test_frame_structure_has_pilot_subframe(self):
        assert charisma().frame_structure.pilot_minislots == EAGER.n_pilot_slots


class TestRequestAndAllocation:
    def test_single_voice_request_served_and_reserved(self):
        protocol = charisma()
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        assert len(outcome.request.winner_ids) == 1
        assert len(outcome.grants) == 1
        assert 0 in protocol.reservations

    def test_good_channel_user_preferred_over_deep_fade_user(self):
        """The CSI-dependent scheduling: with one slot and two pending data
        requests, the good-channel user gets it and the faded user waits."""
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(params=params, use_queue=True)
        population = make_population(data=[3, 3], params=params)  # good 0, faded 1
        # Both requests already survived contention in an earlier frame.
        protocol.request_queue.push(1, 0)
        protocol.request_queue.push(0, 0)
        snapshot = make_snapshot([2.5, 0.02], frame_index=1)
        outcome = run_protocol_frame(protocol, population, snapshot, 1)
        assert outcome.grants.terminal_ids == [0]

    def test_deep_fade_voice_deferred_not_transmitted(self):
        """A reserved voice user in outage with frames to spare is deferred."""
        protocol = charisma()
        population = make_population(voice=[1], params=EAGER)
        protocol.reservations.grant(0)
        outcome = run_protocol_frame(protocol, population, make_snapshot([1e-4]), 0)
        assert len(outcome.grants) == 0

    def test_deep_fade_voice_served_near_deadline(self):
        protocol = charisma()
        frame = 6  # packet created at frame 0 expires at frame 8
        population = make_population(voice=[1], frame=0, params=EAGER)
        protocol.reservations.grant(0)
        snapshot = make_snapshot([1e-4], frame_index=frame)
        outcome = run_protocol_frame(protocol, population, snapshot, frame)
        assert len(outcome.grants) == 1

    def test_slot_budget_never_exceeded(self):
        protocol = charisma()
        population = make_population(data=[50] * 12, params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=1.5)
        assert outcome.grants.total_slots <= protocol.frame_structure.info_slots

    def test_adaptive_capacity_announced(self):
        protocol = charisma()
        population = make_population(data=[50], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=3.0)
        assert outcome.grants.packet_capacities[0] > outcome.grants.n_slots[0]


class TestRequestQueueBehaviour:
    def test_unserved_requests_queued(self):
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(use_queue=True, params=params)
        # reserved voice 0, data 1 and 2; data 2 already has a queued request
        population = make_population(voice=[1], data=[10, 10], params=params)
        protocol.request_queue.push(2, 0)
        protocol.reservations.grant(0)
        snapshot = make_snapshot([1.0, 1.0, 1.0])
        outcome = run_protocol_frame(protocol, population, snapshot, 0)
        # the single slot goes to the (higher priority) voice reservation; the
        # queued data request stays queued
        assert outcome.queued >= 1

    def test_queued_terminal_does_not_recontend(self):
        protocol = charisma(use_queue=True)
        population = make_population(data=[10], params=EAGER)
        protocol.request_queue.push(0, 0)
        ids = protocol.contention_candidate_ids(population)
        assert ids.tolist() == []

    def test_without_queue_leftovers_are_dropped(self):
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(use_queue=False, params=params)
        assert protocol.request_queue is None
        outcome = run_single_frame(protocol, make_population(data=[10], params=params))
        assert outcome.queued == 0

    def test_queue_pruned_of_empty_terminals(self):
        protocol = charisma(use_queue=True)
        population = make_population(data=[0], params=EAGER)
        protocol.request_queue.push(0, 0)
        run_single_frame(protocol, population, frame=1)
        assert not protocol.request_queue.contains_terminal(0)


class TestReservationLifecycle:
    def test_reservation_released_after_talkspurt(self):
        protocol = charisma()
        population = make_population(voice=[0], talking=[False], params=EAGER)
        protocol.reservations.grant(0)
        run_single_frame(protocol, population, frame=1)
        assert 0 not in protocol.reservations

    def test_reserved_voice_served_every_frame_it_has_packets(self):
        protocol = charisma()
        population = make_population(voice=[1], params=EAGER)
        protocol.reservations.grant(0)
        outcome = run_single_frame(protocol, population, amplitude=1.5)
        assert len(outcome.grants) == 1
        assert outcome.request.attempts == 0


class TestCSIPollingIntegration:
    def test_polling_refreshes_backlog_before_allocation(self):
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(use_queue=True, params=params)
        population = make_population(data=[10], params=params)
        # A stale, bad estimate taken at frame 0.
        protocol.request_queue.push(0, 0, csi_amplitude=0.01, csi_frame=0)
        # several frames later the channel is excellent; polling must notice
        snapshot = make_snapshot([3.0], frame_index=5)
        outcome = run_protocol_frame(protocol, population, snapshot, 5)
        assert len(outcome.grants) == 1
        assert outcome.grants.packet_capacities[0] >= 5

    def test_polling_can_be_disabled(self):
        protocol = charisma(use_queue=True, enable_csi_polling=False)
        assert protocol.enable_csi_polling is False


class TestParityCSINoiseOrder:
    def test_winners_then_holders_then_polls_on_the_mac_stream(self):
        """Parity CHARISMA draws its estimation noise straight from the
        estimator on the shared MAC stream, after the request phase: the
        winners' estimates, then the holders', then the stale backlog's
        polls — the same values explicit estimator calls in that order
        draw from a twin generator."""
        seed = 5
        protocol = CharismaProtocol(
            EAGER, build_modem("charisma", EAGER), np.random.default_rng(seed),
            use_request_queue=True,
        )
        # Reserved talkers 0 and 1; data 2 waits in the queue with a stale
        # estimate; data 3 is the only contender (and wins).
        population = make_population(voice=[1, 1], data=[5, 5], params=EAGER)
        protocol.reservations.grant(0)
        protocol.reservations.grant(1)
        protocol.request_queue.push(2, 0, csi_amplitude=0.5, csi_frame=0)
        frame = 6
        snapshot = make_snapshot([1.1, 1.2, 1.3, 1.4], frame_index=frame)

        draws = BlockDraws(protocol)
        estimator_call = protocol.csi_estimator.estimate_amplitudes
        assert draws.estimate == estimator_call  # parity pools nothing
        calls = []

        def recording(amplitudes, frame_index):
            estimates = estimator_call(amplitudes, frame_index)
            calls.append((np.asarray(amplitudes).tolist(), estimates.tolist()))
            return estimates

        draws.estimate = recording
        outcome = run_protocol_frame(protocol, population, snapshot, frame,
                                     draws=draws)
        assert outcome.request.winner_ids == [3]

        twin = np.random.default_rng(seed)
        run_contention_ids(
            [3], population.n_voice, protocol.permission,
            EAGER.n_request_slots, twin,
        )
        twin_estimator = CSIEstimator(
            n_pilot_symbols=EAGER.pilot_symbols_per_request,
            mean_snr_db=EAGER.mean_snr_db,
            validity_frames=EAGER.csi_validity_frames,
            rng=twin,
        )
        order = ([1.4], [1.1, 1.2], [1.3])  # winners, holders, polls
        assert [amplitudes for amplitudes, _ in calls] == list(order)
        assert [estimates for _, estimates in calls] == [
            twin_estimator.estimate_amplitudes(amplitudes, frame).tolist()
            for amplitudes in order
        ]
        # Nothing else touched the shared stream.
        assert protocol.rng.bit_generator.state == twin.bit_generator.state
