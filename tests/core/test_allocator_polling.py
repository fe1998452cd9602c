"""Tests for the CSI-ranked allocator and the CSI polling mechanism."""

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.core.allocator import CSIRankedAllocator
from repro.core.csi_polling import CSIPoller
from repro.mac.registry import build_modem
from repro.mac.requests import GrantColumns, Request, RequestColumns
from repro.phy.csi import CSIEstimate, CSIEstimator
from repro.traffic.packets import TrafficKind
from tests.utils import make_population, make_snapshot

PARAMS = SimulationParameters()
MODEM = build_modem("charisma", PARAMS)


def allocator(n_slots=4, margin=2):
    return CSIRankedAllocator(MODEM, n_slots, defer_deadline_margin=margin)


def request_for(population, tid, csi_amplitude, frame=0, deadline=None):
    return Request(
        terminal_id=tid,
        kind=TrafficKind.VOICE if population.is_voice[tid] else TrafficKind.DATA,
        arrival_frame=frame,
        desired_packets=max(1, int(population.occupancy[tid])),
        csi=(
            None if csi_amplitude is None
            else CSIEstimate(amplitude=csi_amplitude, frame_index=frame)
        ),
        deadline_frame=deadline,
    )


def allocate(alloc, requests, population, frame=0):
    """Run the allocator over requests ranked in the given order."""
    columns = RequestColumns.from_requests(requests)
    grants = GrantColumns()
    unserved, deferred = alloc.allocate_columns(
        columns, np.arange(len(columns)), population, frame, grants
    )
    return grants, unserved, deferred


class TestCSIRankedAllocator:
    def test_voice_gets_one_slot(self):
        population = make_population(voice=[1])
        grants, _, _ = allocate(
            allocator(), [request_for(population, 0, 1.0, deadline=8)], population
        )
        assert len(grants) == 1
        assert grants.n_slots[0] == 1

    def test_data_gets_enough_slots_to_drain_buffer(self):
        population = make_population(data=[12])
        grants, _, _ = allocate(
            allocator(n_slots=8), [request_for(population, 0, 1.0)], population
        )
        assert grants.packet_capacities[0] >= 12 or grants.n_slots[0] == 8

    def test_never_exceeds_slot_budget(self):
        population = make_population(data=[100] * 6)
        requests = [request_for(population, i, 2.0) for i in range(6)]
        grants, _, _ = allocate(allocator(n_slots=5), requests, population)
        assert 0 < grants.total_slots <= 5

    def test_outage_data_request_deferred(self):
        population = make_population(data=[5])
        grants, _, deferred = allocate(
            allocator(), [request_for(population, 0, 1e-4)], population
        )
        assert not len(grants)
        assert deferred == [0]

    def test_outage_voice_deferred_until_deadline_near(self):
        population = make_population(voice=[1])
        relaxed = request_for(population, 0, 1e-4, deadline=8)
        grants, _, deferred = allocate(allocator(margin=2), [relaxed], population)
        assert not len(grants) and deferred

    def test_outage_voice_served_when_deadline_imminent(self):
        population = make_population(voice=[1])
        urgent = request_for(population, 0, 1e-4, deadline=2)
        grants, _, _ = allocate(allocator(margin=2), [urgent], population)
        assert len(grants) == 1
        # served at the most robust mode
        assert grants.throughputs[0] == MODEM.mode_table[0].throughput

    def test_unserved_when_out_of_slots(self):
        population = make_population(voice=[1] * 4)
        requests = [request_for(population, i, 1.0, deadline=8) for i in range(4)]
        grants, unserved, deferred = allocate(allocator(n_slots=2), requests, population)
        assert len(grants) == 2
        assert unserved == [2, 3]
        assert deferred == []

    def test_requests_for_empty_terminals_skipped(self):
        population = make_population(data=[0])
        grants, unserved, _ = allocate(
            allocator(), [request_for(population, 0, 1.0)], population
        )
        assert not len(grants) and not unserved

    def test_missing_csi_treated_conservatively(self):
        population = make_population(voice=[1])
        request = request_for(population, 0, None, deadline=8)
        grants, _, _ = allocate(allocator(), [request], population)
        assert len(grants) == 1
        assert grants.throughputs[0] == MODEM.mode_table[0].throughput

    def test_validation(self):
        with pytest.raises(ValueError):
            CSIRankedAllocator(MODEM, 0)
        with pytest.raises(ValueError):
            CSIRankedAllocator(MODEM, 4, defer_deadline_margin=-1)


class TestCSIPoller:
    def _poller(self, slots=2, validity=2):
        estimator = CSIEstimator(validity_frames=validity, perfect=True,
                                 rng=np.random.default_rng(0))
        return CSIPoller(estimator, slots)

    def _backlog(self, n, stale_frame=0, validity=2):
        return RequestColumns.from_requests(
            [
                Request(
                    terminal_id=tid, kind=TrafficKind.DATA,
                    arrival_frame=stale_frame,
                    csi=CSIEstimate(amplitude=0.5, frame_index=stale_frame),
                )
                for tid in range(n)
            ],
            csi_validity=validity,
        )

    def test_refreshes_stale_estimates(self):
        poller = self._poller(slots=2)
        backlog = self._backlog(2)
        snapshot = make_snapshot([2.0, 3.0], frame_index=10)
        refreshed = poller.refresh_columns(backlog, snapshot, 10)
        assert refreshed == 2
        assert backlog.csi_amplitudes[0] == pytest.approx(2.0)
        assert backlog.csi_frames[1] == 10

    def test_capacity_limits_refreshes(self):
        poller = self._poller(slots=1)
        backlog = self._backlog(4)
        refreshed = poller.refresh_columns(backlog, make_snapshot([1.0] * 4, 10), 10)
        assert refreshed == 1
        assert poller.polls_sent == 1

    def test_fresh_estimates_not_polled(self):
        poller = self._poller(slots=4, validity=4)
        fresh = self._backlog(1, stale_frame=9, validity=4)
        assert poller.refresh_columns(fresh, make_snapshot([2.0], 10), 10) == 0
        assert fresh.csi_amplitudes[0] == 0.5

    def test_priority_selects_most_important(self):
        poller = self._poller(slots=1)
        backlog = self._backlog(2)
        snapshot = make_snapshot([2.0, 3.0], frame_index=10)
        poller.refresh_columns(backlog, snapshot, 10, priorities=np.array([0.0, 1.0]))
        # row 1 has the higher priority, so it gets the single polling slot
        assert backlog.csi_frames[1] == 10
        assert backlog.csi_frames[0] == 0

    def test_missing_csi_counts_as_stale(self):
        poller = self._poller(slots=1)
        backlog = RequestColumns.from_requests(
            [Request(terminal_id=0, kind=TrafficKind.DATA, arrival_frame=0)]
        )
        assert poller.stale_rows(backlog, 0).tolist() == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            CSIPoller(CSIEstimator(), 0)
