"""Tests for slotted request contention and permission gating."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.contention import IndexContentionResult, run_contention_ids
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

    @pytest.mark.parametrize("n_candidates", [6, 40])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_matches_per_minislot_reference(self, n_candidates, as_array):
        """Scalar (small) and array (large) pools make the same draws and
        decisions as a plain per-minislot loop, and leave the caller's
        sequences untouched."""
        ids = list(range(100, 100 + n_candidates))
        probs = np.random.default_rng(4).uniform(
            0.2 / n_candidates, 2.0 / n_candidates, n_candidates
        ).tolist()
        given_ids = np.asarray(ids) if as_array else list(ids)
        given_probs = np.asarray(probs) if as_array else list(probs)
        result = run_contention_ids(
            given_ids, given_probs, 12, np.random.default_rng(9)
        )

        rng = np.random.default_rng(9)
        remaining, remaining_p = list(ids), list(probs)
        winners, attempts, collisions, idle = [], 0, 0, 0
        for _ in range(12):
            if not remaining:
                idle += 1
                continue
            draws = rng.random(len(remaining))
            sent = [i for i, p in enumerate(remaining_p) if draws[i] < p]
            attempts += len(sent)
            if len(sent) == 1:
                winners.append(remaining.pop(sent[0]))
                remaining_p.pop(sent[0])
            elif sent:
                collisions += 1
            else:
                idle += 1
        assert winners, "the reference must exercise a winner popping"
        assert result.winner_ids == winners
        assert all(type(tid) is int for tid in result.winner_ids)
        assert (result.attempts, result.collisions, result.idle_slots) == (
            attempts, collisions, idle,
        )
        assert list(given_ids) == ids and list(given_probs) == probs

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
        policy = PermissionPolicy(0.5, 0.25)
        assert policy.voice_probability == 0.5
        assert policy.data_probability == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            PermissionPolicy(0.0, 0.5)
        with pytest.raises(ValueError):
            PermissionPolicy(0.5, 1.5)
