"""Tests for the reservation table, request queue and frame structures."""

import math
import pickle

import numpy as np
import pytest

from repro.mac.frames import FrameStructure
from repro.mac.request_queue import RequestQueue
from repro.mac.reservation import ReservationTable
from tests.utils import make_population


class TestReservationTable:
    def test_grant_and_query(self):
        table = ReservationTable()
        table.grant(3)
        assert 3 in table
        assert 4 not in table
        assert table.granted == {3}
        assert table.holders() == [3]

    def test_grant_idempotent(self):
        table = ReservationTable()
        table.grant(3)
        table.grant(1)
        table.grant(3)
        assert len(table) == 2
        assert table.holders() == [1, 3]
        assert table.holder_array().tolist() == [1, 3]

    def test_release(self):
        table = ReservationTable()
        table.grant(1)
        table.release(1)
        assert 1 not in table
        assert table.holders() == []
        table.release(1)  # no-op

    def test_live_holders_release_ended_talkspurts(self):
        table = ReservationTable()
        # talker 0 keeps its reservation; 1 left its talkspurt with an empty
        # buffer; talker 2 keeps it through an empty buffer
        population = make_population(
            voice=[1, 0, 0], talking=[True, False, True]
        )
        for tid in (2, 0, 1):
            table.grant(tid)
        live = table.live_holders(
            population.occupancy, population.in_talkspurt
        )
        assert live == [0]
        assert table.holders() == [0, 2]
        assert table.holder_array().tolist() == [0, 2]

    def test_live_holders_require_pending_packets(self):
        table = ReservationTable()
        population = make_population(voice=[1])
        table.grant(0)
        occupancy = population.occupancy.tolist()
        assert table.live_holders(occupancy, population.in_talkspurt) == [0]
        population.transmit(0, max_packets=1, n_delivered=1, current_frame=0)
        assert table.live_holders(
            population.occupancy, population.in_talkspurt
        ) == []
        assert 0 in table  # still talking: the reservation stays

    def test_validation_and_clear(self):
        table = ReservationTable()
        with pytest.raises(ValueError):
            table.grant(-1)
        table.grant(5)
        table.clear()
        assert len(table) == 0


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue(capacity=8)
        for tid in (3, 1, 2):
            queue.push(tid, 0)
        assert queue.pop_all().terminal_ids == [3, 1, 2]
        assert len(queue) == 0

    def test_capacity_enforced(self):
        queue = RequestQueue(capacity=2)
        assert queue.push(0, 0)
        assert queue.push(1, 0)
        assert not queue.push(2, 0)
        assert queue.is_full

    def test_extend_partial(self):
        queue = RequestQueue(capacity=2)
        accepted = queue.extend((i, 0) for i in range(5))
        assert accepted == 2
        assert queue.rows.terminal_ids == [0, 1]

    def test_contains_and_remove_terminal(self):
        """A terminal whose buffer emptied loses every queued row."""
        queue = RequestQueue()
        queue.push(7, 0)
        queue.push(2, 0)
        queue.push(7, 1)
        assert queue.contains_terminal(7)
        occupancy = np.array([0, 0, 4, 0, 0, 0, 0, 0])
        assert queue.prune(2, occupancy) == 2
        assert not queue.contains_terminal(7)
        assert queue.terminal_id_array().tolist() == [2]

    def test_drop_expired_voice(self):
        queue = RequestQueue()
        queue.push(0, 0, deadline_frame=10)
        queue.push(1, 0)
        queue.push(2, 0, deadline_frame=13)
        occupancy = np.ones(3, dtype=np.int64)
        assert queue.prune(12, occupancy) == 1
        assert queue.rows.terminal_ids == [1, 2]
        assert queue.prune(13, occupancy) == 1
        assert queue.rows.terminal_ids == [1]

    def test_prune_drops_ids_outside_population(self):
        queue = RequestQueue()
        queue.push(1, 0)
        queue.push(9, 0)
        assert queue.prune(0, np.ones(4, dtype=np.int64)) == 1
        assert queue.rows.terminal_ids == [1]

    def test_rows_keep_their_columns(self):
        queue = RequestQueue()
        queue.push(4, 3, deadline_frame=9, csi_amplitude=0.7, csi_frame=3)
        queue.push(5, 6)
        rows = queue.pop_all()
        assert rows.row(0) == (4, 3, 9, 0.7, 3)
        tid, arrival, deadline, amplitude, csi_frame = rows.row(1)
        assert (tid, arrival, deadline, csi_frame) == (5, 6, -1, -1)
        assert math.isnan(amplitude)

    def test_pickles_with_its_rows(self):
        queue = RequestQueue(capacity=4)
        queue.push(2, 1, deadline_frame=8)
        clone = pickle.loads(pickle.dumps(queue))
        assert clone.capacity == 4
        assert clone.contains_terminal(2)
        assert clone.pop_all().row(0)[:3] == (2, 1, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)


class TestFrameStructure:
    def test_minislot_equivalent(self):
        frame = FrameStructure(name="x", request_minislots=6, info_slots=5,
                               pilot_minislots=3, minislots_per_info_slot=3)
        assert frame.total_minislot_equivalent == 6 + 3 + 15

    def test_conversions(self):
        frame = FrameStructure(name="x", request_minislots=6, info_slots=5)
        assert frame.info_slots_from_minislots(7) == 2
        assert frame.minislots_from_info_slots(2) == 6
        with pytest.raises(ValueError):
            frame.info_slots_from_minislots(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameStructure(name="x", request_minislots=0, info_slots=0)
        with pytest.raises(ValueError):
            FrameStructure(name="x", request_minislots=1, info_slots=1,
                           minislots_per_info_slot=0)

    def test_describe(self):
        frame = FrameStructure(name="proto", request_minislots=2, info_slots=3)
        row = frame.describe()
        assert row["protocol"] == "proto"
        assert row["info_slots"] == 3
