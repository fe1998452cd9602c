"""Unit tests for the columnar request/grant containers."""

import numpy as np

from repro.core.charisma import CharismaProtocol
from repro.mac.registry import build_modem
from repro.mac.requests import GrantColumns, RequestColumns
from tests.utils import PARAMS, make_population


def _columns():
    """Voice 3 with a deadline and CSI, data 7 without either, voice 1."""
    return RequestColumns(
        terminal_ids=np.array([3, 7, 1], dtype=np.int64),
        is_voice=np.array([True, False, True]),
        arrival_frames=np.array([10, 8, 12], dtype=np.int64),
        deadline_frames=np.array([17, -1, 19], dtype=np.int64),
        csi_amplitudes=np.array([0.8, np.nan, 1.5]),
        csi_frames=np.array([10, -1, 12], dtype=np.int64),
    )


def _assert_same(a, b):
    for name in ("terminal_ids", "is_voice", "arrival_frames",
                 "deadline_frames", "csi_frames"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
    np.testing.assert_array_equal(a.csi_amplitudes, b.csi_amplitudes)
    assert a.csi_validity == b.csi_validity


class TestRequestColumns:
    def test_round_trip_preserves_every_field(self):
        """CHARISMA's leftovers survive the request queue unchanged: the
        queue's columns carry arrival frame, deadline and CSI estimate."""
        protocol = CharismaProtocol(
            PARAMS, build_modem("charisma", PARAMS), np.random.default_rng(0),
            use_request_queue=True, enable_csi_polling=False,
        )
        # Silent voice terminals: no head-of-line packet to refresh from.
        population = make_population(voice=[0, 0, 0, 0], data=[0] * 4)
        originals = _columns()
        assert protocol.requeue_rows(originals, 0, [0, 1, 2]) == 3
        backlog = protocol.request_queue.pop_all()
        rebuilt = protocol.backlog_columns(backlog, population, None, 12)
        _assert_same(rebuilt, originals)

    def test_sentinels_encode_missing_values(self):
        columns = RequestColumns(
            terminal_ids=np.array([7], dtype=np.int64),
            is_voice=np.array([False]),
            arrival_frames=np.array([8], dtype=np.int64),
            deadline_frames=np.array([-1], dtype=np.int64),
        )
        assert columns.deadline_frames[0] == -1
        assert np.isnan(columns.csi_amplitudes[0])
        assert columns.csi_frames[0] == -1

    def test_concatenate_stacks_in_order(self):
        whole = _columns()
        first = RequestColumns(
            whole.terminal_ids[:1], whole.is_voice[:1], whole.arrival_frames[:1],
            whole.deadline_frames[:1], whole.csi_amplitudes[:1],
            whole.csi_frames[:1],
        )
        second = RequestColumns(
            whole.terminal_ids[1:], whole.is_voice[1:], whole.arrival_frames[1:],
            whole.deadline_frames[1:], whole.csi_amplitudes[1:],
            whole.csi_frames[1:],
        )
        merged = RequestColumns.concatenate([first, second])
        assert len(merged) == 3
        _assert_same(merged, whole)

    def test_empty(self):
        empty = RequestColumns.empty()
        assert len(empty) == 0
        assert len(RequestColumns.concatenate([])) == 0


class TestGrantColumns:
    def test_append_fills_aligned_columns(self):
        grants = GrantColumns()
        grants.append(2, 1, 4, 3.0)
        grants.append(5, 3, 3, None)
        assert len(grants) == 2
        assert grants.total_slots == 4
        assert grants == GrantColumns([2, 5], [1, 3], [4, 3], [3.0, None])
        assert grants != GrantColumns([2, 5], [1, 3], [4, 3], [3.0, 1.0])
