"""Frame-level behavioural tests of the five baseline protocols."""

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols, build_modem, create_protocol, protocol_class
from tests.utils import PARAMS, build_protocol, make_population, run_single_frame

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
        protocol.reservations.grant(1, 0)
        ids, probabilities = protocol.contention_candidate_ids(population)
        assert ids.tolist() == [0, 3]
        assert probabilities.tolist() == [1.0, 1.0]

    def test_candidates_exclude_queued_terminals(self):
        protocol = build_protocol("dtdma_fr", use_request_queue=True, params=EAGER)
        population = make_population(data=[5], params=EAGER)
        protocol.request_queue.push(protocol.make_request_for_id(population, 0, 0))
        ids, _ = protocol.contention_candidate_ids(population)
        assert ids.tolist() == []

    def test_slot_capacity_fixed_vs_adaptive(self):
        fixed = build_protocol("dtdma_fr", params=EAGER)
        adaptive = build_protocol("dtdma_vr", params=EAGER)
        assert fixed.slot_capacity(3.0) == (1, None)
        per_slot, throughput = adaptive.slot_capacity(3.0)
        assert per_slot == 5 and throughput == 5.0
        # outage on the adaptive PHY still transmits at the most robust mode
        per_slot, throughput = adaptive.slot_capacity(1e-4)
        assert per_slot == 1 and throughput == 0.5

    def test_frames_emit_grant_columns(self):
        """Every protocol emits its grants as columns, consistent with the
        materialised allocations."""
        for name in available_protocols():
            protocol = build_protocol(name, params=EAGER)
            population = make_population(voice=[1], data=[20], params=EAGER)
            protocol.reservations.grant(0, 0)
            outcome = run_single_frame(protocol, population)
            assert outcome.grants is not None and len(outcome.grants), name
            allocations = outcome.allocations
            assert [a.terminal_id for a in allocations] == list(
                outcome.grants.terminal_ids
            )
            assert sum(a.n_slots for a in allocations) == outcome.grants.total_slots


class TestDTDMAFR:
    def test_voice_request_served_and_reserved(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        assert outcome.n_successful_requests == 1
        assert len(outcome.allocations) == 1
        assert protocol.reservations.has(0)

    def test_reserved_voice_served_without_contention(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        protocol.reservations.grant(0, 0)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        assert outcome.contention_attempts == 0
        assert len(outcome.allocations) == 1

    def test_voice_served_before_data(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        # more contenders than info slots: every info slot should go to voice
        population = make_population(voice=[1] * 10, data=[50] * 3, params=EAGER)
        outcome = run_single_frame(protocol, population)
        allocated_voice = sum(a.terminal_id < 10 for a in outcome.allocations)
        allocated_data = len(outcome.allocations) - allocated_voice
        assert allocated_voice >= allocated_data

    def test_never_allocates_more_than_info_slots(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(voice=[1] * 30, params=EAGER)
        )
        assert outcome.n_allocated_slots <= protocol.frame_structure.info_slots

    def test_unserved_requests_queued_when_enabled(self):
        # One information slot, already taken by a reserved voice user; the
        # lone data contender wins the request phase but gets no slot, so its
        # request must end up in the base-station queue.
        eager_small = EAGER.with_overrides(n_info_slots=1)
        protocol = build_protocol("dtdma_fr", use_request_queue=True, params=eager_small)
        protocol.reservations.grant(0, 0)
        population = make_population(voice=[1], data=[200], params=eager_small)
        outcome = run_single_frame(protocol, population)
        assert outcome.queued_requests == 1
        assert protocol.request_queue.contains_terminal(1)

    def test_fixed_rate_one_packet_per_slot(self):
        protocol = build_protocol("dtdma_fr", params=EAGER)
        population = make_population(data=[100], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=3.0)
        for allocation in outcome.allocations:
            assert allocation.packet_capacity == allocation.n_slots


class TestDTDMAVR:
    def test_adaptive_slots_carry_multiple_packets_in_good_channel(self):
        protocol = build_protocol("dtdma_vr", params=EAGER)
        population = make_population(data=[100], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=3.0)
        assert outcome.allocations
        assert outcome.allocations[0].packet_capacity > outcome.allocations[0].n_slots

    def test_allocates_regardless_of_deep_fade(self):
        """The VR baseline is channel-blind: a user in outage still gets slots."""
        protocol = build_protocol("dtdma_vr", params=EAGER)
        population = make_population(voice=[1], params=EAGER)
        outcome = run_single_frame(protocol, population, amplitude=1e-3)
        assert len(outcome.allocations) == 1


class TestRAMA:
    def test_auction_produces_single_winner_per_slot(self):
        protocol = build_protocol("rama", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(data=[10] * 20, params=EAGER)
        )
        assert outcome.n_successful_requests <= protocol.params.rama_auction_slots

    def test_no_thrashing_with_many_contenders(self):
        """Unlike slotted contention, the auction keeps making progress."""
        protocol = build_protocol("rama", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(voice=[1] * 40, params=EAGER)
        )
        assert outcome.n_successful_requests >= 1

    def test_voice_wins_over_data(self):
        protocol = build_protocol("rama", params=EAGER)
        population = make_population(voice=[1], data=[10] * 5, params=EAGER)
        outcome = run_single_frame(protocol, population)
        assert outcome.acknowledgements[0].terminal_id == 0

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
        assert outcome.n_successful_requests == 1

    def test_two_contenders_collide(self):
        protocol = build_protocol("rmav", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(voice=[1, 1], params=EAGER)
        )
        assert outcome.n_successful_requests == 0
        assert outcome.contention_collisions == 1

    def test_data_grant_bounded_by_pmax(self):
        protocol = build_protocol("rmav", params=EAGER)
        outcome = run_single_frame(protocol, make_population(data=[500], params=EAGER))
        assert outcome.allocations
        assert outcome.allocations[0].n_slots <= protocol.params.rmav_pmax


class TestDRMA:
    def test_idle_slots_convert_to_request_opportunities(self):
        protocol = build_protocol("drma", params=EAGER)
        outcome = run_single_frame(protocol, make_population(voice=[1], params=EAGER))
        # the first slot was idle, got converted, the request succeeded and a
        # later slot carried the packet
        assert outcome.n_successful_requests == 1
        assert len(outcome.allocations) == 1
        assert protocol.reservations.has(0)

    def test_full_frame_offers_no_contention(self):
        """When every slot is already assigned, nobody can even request."""
        protocol = build_protocol("drma", params=EAGER)
        n_slots = protocol.frame_structure.info_slots
        for i in range(n_slots):
            protocol.reservations.grant(i, 0)
        # n_slots reserved talkers plus one newcomer
        population = make_population(voice=[1] * (n_slots + 1), params=EAGER)
        outcome = run_single_frame(protocol, population)
        assert outcome.contention_attempts == 0
        assert outcome.n_successful_requests == 0

    def test_data_user_can_win_multiple_slots_by_recontending(self):
        protocol = build_protocol("drma", params=EAGER)
        outcome = run_single_frame(protocol, make_population(data=[500], params=EAGER))
        assert len(outcome.allocations) >= 2

    def test_slot_budget_respected(self):
        protocol = build_protocol("drma", params=EAGER)
        outcome = run_single_frame(
            protocol, make_population(data=[50] * 20, params=EAGER)
        )
        assert outcome.n_allocated_slots <= protocol.frame_structure.info_slots
