"""Tests for the CHARISMA priority metric."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PriorityWeights, SimulationParameters
from repro.core.priority import PriorityCalculator
from repro.mac.registry import build_modem
from repro.mac.requests import RequestColumns

PARAMS = SimulationParameters()
MODEM = build_modem("charisma", PARAMS)


def calc(weights=None):
    return PriorityCalculator(weights or PARAMS.priority, MODEM)


def _request(is_voice, csi_amplitude, deadline_frame, arrival):
    """A one-row request pool; ``None`` amplitude = no CSI estimate."""
    return RequestColumns(
        terminal_ids=np.array([0 if is_voice else 1], dtype=np.int64),
        is_voice=np.array([is_voice]),
        arrival_frames=np.array([arrival], dtype=np.int64),
        deadline_frames=np.array([deadline_frame], dtype=np.int64),
        csi_amplitudes=np.array(
            [np.nan if csi_amplitude is None else csi_amplitude]
        ),
        csi_frames=np.array(
            [-1 if csi_amplitude is None else arrival], dtype=np.int64
        ),
    )


def voice_request(csi_amplitude=1.0, deadline_frame=8, arrival=0):
    return _request(True, csi_amplitude, deadline_frame, arrival)


def data_request(csi_amplitude=1.0, arrival=0):
    return _request(False, csi_amplitude, -1, arrival)


def pool(*requests):
    return RequestColumns.concatenate(requests)


def priority(c, request, frame):
    """The metric of a one-row pool."""
    return float(c.priorities_columns(request, frame)[0])


#: Weights isolating one term of the metric.
CHANNEL_ONLY = dataclasses.replace(
    PARAMS.priority, urgency_weight_voice=0.0, urgency_weight_data=0.0,
    voice_offset=0.0,
)
URGENCY_ONLY = dataclasses.replace(
    PARAMS.priority, alpha_voice=0.0, alpha_data=0.0, voice_offset=0.0,
)


def channel_term(request):
    return priority(calc(CHANNEL_ONLY), request, 0)


def urgency_term(request, current_frame):
    return priority(calc(URGENCY_ONLY), request, current_frame)


class TestChannelTerm:
    def test_better_channel_higher_term(self):
        assert channel_term(voice_request(3.0)) > channel_term(voice_request(0.3))

    def test_outage_channel_gives_zero(self):
        assert channel_term(voice_request(1e-4)) == 0.0

    def test_missing_csi_gives_zero(self):
        assert channel_term(data_request(None)) == 0.0

    def test_bounded_by_top_mode(self):
        assert channel_term(voice_request(100.0)) <= MODEM.mode_table.max_throughput


class TestUrgencyTerm:
    def test_voice_urgency_grows_towards_deadline(self):
        request = voice_request(deadline_frame=8)
        early = urgency_term(request, current_frame=0)
        late = urgency_term(request, current_frame=7)
        assert late > early

    def test_voice_urgency_maximal_at_deadline(self):
        request = voice_request(deadline_frame=8)
        at_deadline = urgency_term(request, current_frame=8)
        assert at_deadline == pytest.approx(PARAMS.priority.urgency_weight_voice)

    def test_data_urgency_grows_with_waiting_time(self):
        request = data_request(arrival=0)
        assert urgency_term(request, 50) > urgency_term(request, 1)
        assert urgency_term(request, 0) == pytest.approx(0.0)

    def test_data_urgency_bounded(self):
        request = data_request(arrival=0)
        assert urgency_term(request, 10_000) <= PARAMS.priority.urgency_weight_data


class TestPriority:
    def test_voice_outranks_data_at_equal_channel(self):
        c = calc()
        assert priority(c, voice_request(1.0), 0) > priority(c, data_request(1.0), 0)

    def test_good_channel_voice_outranks_bad_channel_voice(self):
        c = calc()
        good = voice_request(3.0, deadline_frame=8)
        bad = voice_request(0.05, deadline_frame=8)
        assert priority(c, good, 0) > priority(c, bad, 0)

    def test_imminent_deadline_overcomes_channel_disadvantage(self):
        """Fairness: a voice request about to expire outranks a fresh one in a
        much better channel."""
        c = calc()
        urgent_bad_channel = voice_request(0.05, deadline_frame=1)
        relaxed_good_channel = voice_request(3.0, deadline_frame=8)
        assert priority(c, urgent_bad_channel, 0) > priority(c, relaxed_good_channel, 0)

    def test_rank_orders_descending(self):
        c = calc()
        requests = pool(data_request(0.2), voice_request(1.0), data_request(3.0))
        order = np.argsort(-c.priorities_columns(requests, 0), kind="stable")
        assert order.tolist() == [1, 2, 0]
        assert requests.is_voice[order[0]]

    def test_alpha_zero_disables_channel_preference(self):
        weights = PriorityWeights(alpha_voice=0.0, alpha_data=0.0)
        c = calc(weights)
        good = data_request(3.0)
        bad = data_request(0.05)
        assert priority(c, good, 0) == pytest.approx(priority(c, bad, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
        st.integers(min_value=0, max_value=8),
    )
    def test_priority_monotone_in_channel_quality(self, amp_low, amp_high, frames_left):
        lo, hi = sorted((amp_low, amp_high))
        c = calc()
        request_lo = voice_request(lo, deadline_frame=frames_left)
        request_hi = voice_request(hi, deadline_frame=frames_left)
        assert priority(c, request_hi, 0) >= priority(c, request_lo, 0)


class TestBatchedPriorities:
    """The column path composes the terms element-wise."""

    def test_priorities_match_scalar_term_composition(self):
        c = calc()
        w = PARAMS.priority
        requests = [
            voice_request(3.0, deadline_frame=4),
            voice_request(0.05, deadline_frame=10),
            data_request(2.0, arrival=0),
            data_request(0.4, arrival=3),
            data_request(None, arrival=0),  # no CSI
        ]
        frame = 6
        batch = c.priorities_columns(pool(*requests), frame)
        for request, value in zip(requests, batch):
            channel = channel_term(request)
            urgency = urgency_term(request, frame)
            if request.is_voice[0]:
                expected = w.alpha_voice * channel + urgency + w.voice_offset
            else:
                expected = w.alpha_data * channel + urgency
            assert value == pytest.approx(expected, rel=1e-12)
            assert priority(c, request, frame) == value

    def test_rank_matches_sort_by_priority(self):
        c = calc()
        requests = [voice_request(a, deadline_frame=8 + i)
                    for i, a in enumerate((0.2, 3.0, 1.0))]
        requests += [data_request(a, arrival=i) for i, a in enumerate((0.5, 2.5))]
        values = c.priorities_columns(pool(*requests), 5)
        ranked = values[np.argsort(-values, kind="stable")].tolist()
        assert ranked == sorted(values.tolist(), reverse=True)
        assert ranked == sorted(priority(c, r, 5) for r in requests)[::-1]

    def test_priorities_empty(self):
        assert calc().priorities_columns(RequestColumns.empty(), 0).shape == (0,)
