"""Tests for slotted request contention and permission gating."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.contention import IndexContentionResult, run_contention_ids
from repro.traffic.packets import TrafficKind
from repro.traffic.permission import PermissionPolicy


def contend(n_candidates, n_minislots, p=1.0, seed=0):
    return run_contention_ids(
        list(range(n_candidates)), [p] * n_candidates, n_minislots,
        np.random.default_rng(seed),
    )


class TestRunContention:
    def test_single_candidate_always_wins_with_unity_permission(self):
        result = contend(1, 4)
        assert result.winner_ids == [0]
        assert result.collisions == 0

    def test_two_candidates_with_unity_permission_always_collide(self):
        result = contend(2, 5)
        assert result.winner_ids == []
        assert result.collisions == 5

    def test_no_candidates_all_idle(self):
        result = contend(0, 6)
        assert result.winner_ids == []
        assert result.idle_slots == 6
        assert result.attempts == 0

    def test_winner_stops_contending(self):
        """A successful terminal must not win a second minislot in the frame."""
        assert len(contend(1, 8).winner_ids) == 1

    def test_moderate_permission_resolves_two_contenders(self):
        assert len(contend(2, 20, p=0.3, seed=1).winner_ids) >= 1

    def test_attempts_counted(self):
        result = contend(3, 5, seed=2)
        # with p=1 every remaining candidate transmits in every slot
        assert result.attempts == 15
        assert result.collisions == 5

    def test_negative_minislots_rejected(self):
        with pytest.raises(ValueError):
            contend(0, -1)

    def test_zero_minislots(self):
        assert contend(1, 0).winner_ids == []

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_conservation_property(self, n_candidates, n_slots, p):
        """Winners + collisions + idle slots account for every minislot, and a
        terminal can win at most once."""
        result = contend(n_candidates, n_slots, p=p, seed=3)
        n_winners = len(result.winner_ids)
        assert n_winners + result.collisions + result.idle_slots == n_slots
        assert n_winners <= min(n_candidates, n_slots)
        assert len(set(result.winner_ids)) == n_winners


class TestContentionResult:
    def test_default_empty(self):
        result = IndexContentionResult()
        assert result.winner_ids == []
        assert result.attempts == 0


class TestPermissionPolicy:
    def test_probability_lookup(self):
        policy = PermissionPolicy(0.5, 0.25, np.random.default_rng(0))
        assert policy.probability_for(TrafficKind.VOICE) == 0.5
        assert policy.probability_for(TrafficKind.DATA) == 0.25

    def test_empirical_rates(self):
        policy = PermissionPolicy(0.5, 0.25, np.random.default_rng(1))
        voice_rate = np.mean([policy.permits(TrafficKind.VOICE) for _ in range(4000)])
        data_rate = np.mean([policy.permits(TrafficKind.DATA) for _ in range(4000)])
        assert voice_rate == pytest.approx(0.5, abs=0.05)
        assert data_rate == pytest.approx(0.25, abs=0.05)

    def test_unity_probability_always_permits(self):
        policy = PermissionPolicy(1.0, 1.0, np.random.default_rng(2))
        assert all(policy.permits(TrafficKind.VOICE) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            PermissionPolicy(0.0, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            PermissionPolicy(0.5, 1.5, np.random.default_rng(0))
