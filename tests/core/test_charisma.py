"""Frame-level behavioural tests of the CHARISMA protocol."""

import numpy as np
import pytest

from repro.core.charisma import CharismaProtocol
from repro.mac.registry import build_modem, create_protocol
from repro.phy.csi import CSIEstimator
from repro.phy.fixed import FixedRateModem
from tests.utils import PARAMS, make_population, make_snapshot, run_single_frame

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
        assert outcome.n_successful_requests == 1
        assert len(outcome.allocations) == 1
        assert protocol.reservations.has(0)

    def test_good_channel_user_preferred_over_deep_fade_user(self):
        """The CSI-dependent scheduling: with one slot and two pending data
        requests, the good-channel user gets it and the faded user waits."""
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(params=params, use_queue=True)
        population = make_population(data=[3, 3], params=params)  # good 0, faded 1
        # Both requests already survived contention in an earlier frame.
        protocol.request_queue.push(protocol.make_request_for_id(population, 1, 0))
        protocol.request_queue.push(protocol.make_request_for_id(population, 0, 0))
        snapshot = make_snapshot([2.5, 0.02], frame_index=1)
        outcome = protocol.run_frame_batch(1, population, snapshot)
        allocated = {a.terminal_id for a in outcome.allocations}
        assert allocated == {0}

    def test_deep_fade_voice_deferred_not_transmitted(self):
        """A reserved voice user in outage with frames to spare is deferred."""
        protocol = charisma()
        population = make_population(voice=[1], params=EAGER)
        protocol.reservations.grant(0, 0)
        outcome = protocol.run_frame_batch(0, population, make_snapshot([1e-4]))
        assert outcome.allocations == []

    def test_deep_fade_voice_served_near_deadline(self):
        protocol = charisma()
        frame = 6  # packet created at frame 0 expires at frame 8
        population = make_population(voice=[1], frame=0, params=EAGER)
        protocol.reservations.grant(0, 0)
        snapshot = make_snapshot([1e-4], frame_index=frame)
        outcome = protocol.run_frame_batch(frame, population, snapshot)
        assert len(outcome.allocations) == 1

    def test_slot_budget_never_exceeded(self):
        protocol = charisma()
        population = make_population(data=[50] * 12, params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=1.5)
        assert outcome.n_allocated_slots <= protocol.frame_structure.info_slots

    def test_adaptive_capacity_announced(self):
        protocol = charisma()
        population = make_population(data=[50], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=3.0)
        assert outcome.allocations[0].packet_capacity > outcome.allocations[0].n_slots


class TestRequestQueueBehaviour:
    def test_unserved_requests_queued(self):
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(use_queue=True, params=params)
        # reserved voice 0, data 1 and 2; data 2 already has a queued request
        population = make_population(voice=[1], data=[10, 10], params=params)
        protocol.request_queue.push(protocol.make_request_for_id(population, 2, 0))
        protocol.reservations.grant(0, 0)
        snapshot = make_snapshot([1.0, 1.0, 1.0])
        outcome = protocol.run_frame_batch(0, population, snapshot)
        # the single slot goes to the (higher priority) voice reservation; the
        # queued data request stays queued
        assert outcome.queued_requests >= 1

    def test_queued_terminal_does_not_recontend(self):
        protocol = charisma(use_queue=True)
        population = make_population(data=[10], params=EAGER)
        protocol.request_queue.push(protocol.make_request_for_id(population, 0, 0))
        ids, _ = protocol.contention_candidate_ids(population)
        assert ids.tolist() == []

    def test_without_queue_leftovers_are_dropped(self):
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(use_queue=False, params=params)
        assert protocol.request_queue is None
        outcome = run_single_frame(protocol, make_population(data=[10], params=params))
        assert outcome.queued_requests == 0

    def test_queue_pruned_of_empty_terminals(self):
        protocol = charisma(use_queue=True)
        population = make_population(data=[0], params=EAGER)
        protocol.request_queue.push(protocol.make_request_for_id(population, 0, 0))
        run_single_frame(protocol, population, frame=1)
        assert not protocol.request_queue.contains_terminal(0)


class TestReservationLifecycle:
    def test_reservation_released_after_talkspurt(self):
        protocol = charisma()
        population = make_population(voice=[0], talking=[False], params=EAGER)
        protocol.reservations.grant(0, 0)
        run_single_frame(protocol, population, frame=1)
        assert not protocol.reservations.has(0)

    def test_reserved_voice_served_every_frame_it_has_packets(self):
        protocol = charisma()
        population = make_population(voice=[1], params=EAGER)
        protocol.reservations.grant(0, 0)
        outcome = run_single_frame(protocol, population, amplitude=1.5)
        assert len(outcome.allocations) == 1
        assert outcome.contention_attempts == 0


class TestCSIPollingIntegration:
    def test_polling_refreshes_backlog_before_allocation(self):
        params = EAGER.with_overrides(n_info_slots=1)
        protocol = charisma(use_queue=True, params=params)
        population = make_population(data=[10], params=params)
        stale = protocol.make_request_for_id(population, 0, 0)
        stale.csi = protocol.csi_estimator.estimate(0.01, 0)  # stale, bad estimate
        protocol.request_queue.push(stale)
        # several frames later the channel is excellent; polling must notice
        snapshot = make_snapshot([3.0], frame_index=5)
        outcome = protocol.run_frame_batch(5, population, snapshot)
        assert len(outcome.allocations) == 1
        assert outcome.allocations[0].packet_capacity >= 5

    def test_polling_can_be_disabled(self):
        protocol = charisma(use_queue=True, enable_csi_polling=False)
        assert protocol.enable_csi_polling is False
