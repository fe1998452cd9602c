"""Frame-level behavioural tests of the five baseline protocols."""

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.mac.drma import DRMAProtocol
from repro.mac.registry import available_protocols, build_modem, create_protocol, protocol_class
from tests.utils import (
    PARAMS, build_protocol, make_population, population_snapshot, run_single_frame,
)

# A permissive parameter set that makes contention deterministic enough for
# frame-level unit assertions (single contenders always transmit).
EAGER = PARAMS.with_overrides(
    voice_permission_probability=1.0, data_permission_probability=1.0
)


class TestRegistry:
    def test_all_six_protocols_available(self):
        assert available_protocols() == [
            "charisma", "drma", "dtdma_fr", "dtdma_vr", "rama", "rmav"
        ]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            protocol_class("nonexistent")
        with pytest.raises(KeyError):
            create_protocol("nonexistent", PARAMS, np.random.default_rng(0))

    def test_modem_kind_matches_protocol(self):
        assert build_modem("charisma", PARAMS).is_adaptive
        assert build_modem("dtdma_vr", PARAMS).is_adaptive
        assert not build_modem("dtdma_fr", PARAMS).is_adaptive
        assert not build_modem("rama", PARAMS).is_adaptive

    def test_rmav_never_uses_queue(self):
        protocol = build_protocol("rmav", use_request_queue=True)
        assert protocol.use_request_queue is False
        assert protocol.request_queue is None

    def test_describe_rows(self):
        for name in available_protocols():
            row = build_protocol(name).describe()
            assert row["name"] == name
            assert "frame" in row


class TestSharedBaseBehaviour:
    def test_contention_candidates_exclude_reserved_and_empty(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        # talker 0, reserved talker 1, silent empty voice 2, data 3
        population = make_population(
            voice=[1, 1, 0], data=[5], talking=[True, True, False], params=EAGER
        )
        protocol.reservations.grant(1)
        ids = protocol.contention_candidate_ids(population)
        assert ids.tolist() == [0, 3]

    def test_candidates_exclude_queued_terminals(self):
        protocol = build_protocol("dtdma_fr", use_request_queue=True, params=EAGER)
        population = make_population(data=[5], params=EAGER)
        protocol.request_queue.push(0, 0)
        ids = protocol.contention_candidate_ids(population)
        assert ids.tolist() == []

    def test_grant_capacity_fixed_vs_adaptive(self):
        fixed = build_protocol("dtdma_fr", params=EAGER)
        adaptive = build_protocol("dtdma_vr", params=EAGER)
        population = make_population(data=[1, 1], params=EAGER)
        good = population_snapshot(population, 3.0)
        per_slot, throughputs = fixed.grant_capacity_columns([0, 1], good)
        assert per_slot.tolist() == [1, 1] and throughputs is None
        per_slot, throughputs = adaptive.grant_capacity_columns([0, 1], good)
        assert per_slot.tolist() == [5, 5] and throughputs.tolist() == [5.0, 5.0]
        # outage on the adaptive PHY still transmits at the most robust mode
        outage = population_snapshot(population, 1e-4)
        per_slot, throughputs = adaptive.grant_capacity_columns([1], outage)
        assert per_slot.tolist() == [1] and throughputs.tolist() == [0.5]

    def test_winners_are_eligible_contenders(self):
        """Only backlogged, unreserved talkers and backlogged data
        terminals can win the request phase."""
        # Everyone transmitting in every minislot would always collide.
        params = PARAMS.with_overrides(
            voice_permission_probability=0.3, data_permission_probability=0.3
        )
        for name in available_protocols():
            won = set()
            for seed in range(8):
                protocol = build_protocol(name, params=params, seed=seed)
                # talkers 0 and 1, silent voice 2, reserved talker 3; data
                # 4 and 6 backlogged, data 5 empty
                population = make_population(
                    voice=[1, 1, 0, 2], data=[5, 0, 3],
                    talking=[True, True, False, True], params=params,
                    seed=seed,
                )
                protocol.reservations.grant(3)
                outcome = run_single_frame(protocol, population)
                winners = outcome.request.winner_ids
                assert set(winners) <= {0, 1, 4, 6}, name
                assert len(winners) <= outcome.request.attempts, name
                won.update(winners)
            assert won, name

    def test_frames_emit_grant_columns(self):
        """Every protocol emits its grants as aligned, valid columns."""
        for name in available_protocols():
            protocol = build_protocol(name, params=EAGER)
            population = make_population(voice=[1], data=[20], params=EAGER)
            protocol.reservations.grant(0)
            outcome = run_single_frame(protocol, population)
            grants = outcome.grants
            assert grants is not None and len(grants), name
            assert len(grants.n_slots) == len(grants), name
            assert len(grants.packet_capacities) == len(grants), name
            assert len(grants.throughputs) == len(grants), name
            assert all(n >= 1 for n in grants.n_slots), name
            assert all(c >= 1 for c in grants.packet_capacities), name
            assert all(t is None or t > 0 for t in grants.throughputs), name
            assert outcome.grants.total_slots == sum(grants.n_slots), name


class TestDTDMAFR:
    def test_voice_request_served_and_reserved(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        assert len(outcome.request.winner_ids) == 1
        assert len(outcome.grants) == 1
        assert 0 in protocol.reservations

    def test_reserved_voice_served_without_contention(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        protocol.reservations.grant(0)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        assert outcome.request.attempts == 0
        assert len(outcome.grants) == 1

    def test_voice_served_before_data(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        # more contenders than info slots: every info slot should go to voice
        population = make_population(voice=[1] * 10, data=[50] * 3, params=EAGER)
        outcome = run_single_frame(protocol, population)
        allocated_voice = sum(tid < 10 for tid in outcome.grants.terminal_ids)
        allocated_data = len(outcome.grants) - allocated_voice
        assert allocated_voice >= allocated_data

    def test_never_allocates_more_than_info_slots(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(voice=[1] * 30, params=EAGER)
        )
        assert outcome.grants.total_slots <= protocol.frame_structure.info_slots

    def test_unserved_requests_queued_when_enabled(self):
        # One information slot, already taken by a reserved voice user; the
        # lone data contender wins the request phase but gets no slot, so its
        # request must end up in the base-station queue.
        eager_small = EAGER.with_overrides(n_info_slots=1)
        protocol = build_protocol("dtdma_fr", use_request_queue=True, params=eager_small)
        protocol.reservations.grant(0)
        population = make_population(voice=[1], data=[200], params=eager_small)
        outcome = run_single_frame(protocol, population)
        assert outcome.queued == 1
        assert protocol.request_queue.contains_terminal(1)

    def test_fixed_rate_one_packet_per_slot(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        population = make_population(data=[100], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=3.0)
        assert outcome.grants.packet_capacities == outcome.grants.n_slots


class TestDTDMAVR:
    def test_adaptive_slots_carry_multiple_packets_in_good_channel(self):
        protocol = build_protocol("dtdma_vr", params=EAGER)
        population = make_population(data=[100], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=3.0)
        assert outcome.grants
        assert outcome.grants.packet_capacities[0] > outcome.grants.n_slots[0]

    def test_allocates_regardless_of_deep_fade(self):
        """The VR baseline is channel-blind: a user in outage still gets slots."""
        protocol = build_protocol("dtdma_vr", params=EAGER)
        population = make_population(voice=[1], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=1e-3)
        assert len(outcome.grants) == 1


class TestRAMA:
    def test_auction_produces_single_winner_per_slot(self):
        protocol = build_protocol("rama", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(data=[10] * 20, params=EAGER)
        )
        assert len(outcome.request.winner_ids) <= protocol.params.rama_auction_slots

    def test_no_thrashing_with_many_contenders(self):
        """Unlike slotted contention, the auction keeps making progress."""
        protocol = build_protocol("rama", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(voice=[1] * 40, params=EAGER)
        )
        assert len(outcome.request.winner_ids) >= 1

    def test_voice_wins_over_data(self):
        protocol = build_protocol("rama", params=EAGER)
        population = make_population(voice=[1], data=[10] * 5, params=EAGER)
        outcome = run_single_frame(protocol, population)
        assert outcome.request.winner_ids[0] == 0

    def test_run_auction_accounts_every_slot(self):
        protocol = build_protocol("rama", params=EAGER)
        n_slots = protocol.params.rama_auction_slots
        candidates = [0, 1, 2, 5, 6, 7, 8, 9]  # ids below 3 are voice
        result = protocol.run_auction(candidates, 3)
        assert candidates == [0, 1, 2, 5, 6, 7, 8, 9]
        winners = result.winner_ids
        assert len(set(winners)) == len(winners)
        assert set(winners) <= set(candidates)
        assert len(winners) + result.collisions + result.idle_slots == n_slots
        # Voice bids beat data bids until every voice contender has won.
        is_voice = [tid < 3 for tid in winners]
        assert is_voice == sorted(is_voice, reverse=True)
        # No contenders: every slot is idle and the stream is not drawn.
        state = protocol.rng.bit_generator.state
        idle = protocol.run_auction([], 3)
        assert idle.winner_ids == [] and idle.idle_slots == n_slots
        assert protocol.rng.bit_generator.state == state

    def test_tie_probability_properties(self):
        protocol = build_protocol("rama", params=EAGER)
        assert protocol.whole_id_tie_probability(1) == 0.0
        assert protocol.whole_id_tie_probability(2) > 0.0
        assert (
            protocol.whole_id_tie_probability(50)
            > protocol.whole_id_tie_probability(2)
        )
        assert protocol.whole_id_tie_probability(50) < 0.05


class TestRMAV:
    def test_at_most_one_winner_per_frame(self):
        protocol = build_protocol("rmav", params=EAGER)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        assert len(outcome.request.winner_ids) == 1

    def test_two_contenders_collide(self):
        protocol = build_protocol("rmav", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(voice=[1, 1], params=EAGER)
        )
        assert len(outcome.request.winner_ids) == 0
        assert outcome.request.collisions == 1

    def test_data_grant_bounded_by_pmax(self):
        protocol = build_protocol("rmav", params=EAGER)
        outcome = run_single_frame(protocol, make_population(data=[500], params=EAGER))
        assert outcome.grants
        assert outcome.grants.n_slots[0] <= protocol.params.rmav_pmax


class TestDRMA:
    def test_adaptive_phy_rejected(self):
        with pytest.raises(ValueError, match="fixed-rate"):
            DRMAProtocol(
                EAGER, build_modem("dtdma_vr", EAGER), np.random.default_rng(0)
            )

    def test_idle_slots_convert_to_request_opportunities(self):
        protocol = build_protocol("drma", params=EAGER)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        # the first slot was idle, got converted, the request succeeded and a
        # later slot carried the packet
        assert len(outcome.request.winner_ids) == 1
        assert len(outcome.grants) == 1
        assert 0 in protocol.reservations

    def test_full_frame_offers_no_contention(self):
        """When every slot is already assigned, nobody can even request."""
        protocol = build_protocol("drma", params=EAGER)
        n_slots = protocol.frame_structure.info_slots
        for i in range(n_slots):
            protocol.reservations.grant(i)
        # n_slots reserved talkers plus one newcomer
        population = make_population(voice=[1] * (n_slots + 1), params=EAGER)
        outcome = run_single_frame(protocol, population)
        assert outcome.request.attempts == 0
        assert len(outcome.request.winner_ids) == 0

    def test_data_user_can_win_multiple_slots_by_recontending(self):
        protocol = build_protocol("drma", params=EAGER)
        outcome = run_single_frame(protocol, make_population(data=[500], params=EAGER))
        assert len(outcome.grants) >= 2

    def test_slot_budget_respected(self):
        protocol = build_protocol("drma", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(data=[50] * 20, params=EAGER)
        )
        assert outcome.grants.total_slots <= protocol.frame_structure.info_slots


class TestFCFSOrder:
    """The service order of ``MACProtocol.serve_fcfs``: every voice request
    (queued, then new) before any data request (queued, then new)."""

    ONE_SLOT = EAGER.with_overrides(n_info_slots=1)

    @pytest.mark.parametrize("name", ("dtdma_fr", "rama"))
    def test_new_voice_winner_beats_queued_data(self, name):
        protocol = build_protocol(name, use_request_queue=True, params=self.ONE_SLOT)
        population = make_population(voice=[1], data=[5], params=self.ONE_SLOT)
        protocol.request_queue.push(1, 0)  # data terminal 1, queued earlier
        outcome = run_single_frame(protocol, population, frame=2)
        assert outcome.request.winner_ids == [0]
        assert outcome.grants.terminal_ids == [0]
        assert 0 in protocol.reservations
        # The data request waits on, keeping its arrival frame.
        assert protocol.request_queue.rows.terminal_ids == [1]
        assert protocol.request_queue.rows.arrival_frames == [0]

    @pytest.mark.parametrize("name", ("dtdma_fr", "rama"))
    def test_queued_voice_beats_new_voice_winner(self, name):
        protocol = build_protocol(name, use_request_queue=True, params=self.ONE_SLOT)
        population = make_population(voice=[1, 1], params=self.ONE_SLOT)
        deadline = self.ONE_SLOT.voice_deadline_frames
        protocol.request_queue.push(0, 0, deadline_frame=deadline)
        outcome = run_single_frame(protocol, population, frame=2)
        assert outcome.request.winner_ids == [1]
        assert outcome.grants.terminal_ids == [0]
        assert 0 in protocol.reservations and 1 not in protocol.reservations
        # The new winner is queued with this frame's arrival and its
        # head-of-line packet's deadline.
        rows = protocol.request_queue.rows
        assert rows.terminal_ids == [1]
        assert rows.arrival_frames == [2]
        assert rows.deadline_frames == [deadline]
