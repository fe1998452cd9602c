"""Tests for slotted request contention and permission gating."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.contention import (
    _SCALAR_RESOLUTION_LIMIT,
    IndexContentionResult,
    run_contention_ids,
)
from repro.traffic.permission import PermissionPolicy


def contend(n_candidates, n_minislots, p=1.0, seed=0):
    """Candidates ``0..n-1``, half voice, both classes at probability ``p``."""
    return run_contention_ids(
        list(range(n_candidates)), n_candidates // 2, PermissionPolicy(p, p),
        n_minislots, np.random.default_rng(seed),
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
        decisions as a plain per-minislot loop in which each candidate
        transmits with its class's probability — voice below ``n_voice``,
        data from it on — and leave the caller's ids untouched."""
        assert 6 <= _SCALAR_RESOLUTION_LIMIT < 40
        # Ascending ids with gaps; the voice/data boundary falls inside.
        ids = list(range(100, 100 + 3 * n_candidates, 3))
        n_voice = ids[n_candidates // 3] + 1
        p_voice, p_data = 1.2 / n_candidates, 0.4 / n_candidates
        given_ids = np.asarray(ids) if as_array else list(ids)
        result = run_contention_ids(
            given_ids, n_voice, PermissionPolicy(p_voice, p_data), 12,
            np.random.default_rng(9),
        )

        rng = np.random.default_rng(9)
        remaining = list(ids)
        winners, attempts, collisions, idle = [], 0, 0, 0
        for _ in range(12):
            if not remaining:
                idle += 1
                continue
            draws = rng.random(len(remaining))
            sent = [
                i for i, tid in enumerate(remaining)
                if draws[i] < (p_voice if tid < n_voice else p_data)
            ]
            attempts += len(sent)
            if len(sent) == 1:
                winners.append(remaining.pop(sent[0]))
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
        assert list(given_ids) == ids

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("path", ["scalar", "array", "fast"])
    def test_voice_prefix_ends_below_n_voice(self, path, as_array):
        """The class split sits exactly at ``n_voice``: with p_v = 1 and a
        vanishing p_d, the last voice id ``n_voice - 1`` transmits in every
        minislot and the first data id ``n_voice`` practically never, so
        the voice candidate wins the first minislot alone.  Counting
        ``n_voice`` as voice would make the two collide instead."""
        n_voice = 10
        ids = [n_voice - 1, n_voice]
        if path == "array":
            # Further data ids push the pool past the scalar limit.
            ids += list(range(n_voice + 1, n_voice + _SCALAR_RESOLUTION_LIMIT))
            assert len(ids) > _SCALAR_RESOLUTION_LIMIT
        n_minislots = 6  # the fast matrix draw's minimum
        result = run_contention_ids(
            np.asarray(ids) if as_array else ids, n_voice,
            PermissionPolicy(1.0, 1e-9), n_minislots,
            np.random.default_rng(5), fast=path == "fast",
        )
        assert result.winner_ids == [n_voice - 1]
        assert (result.attempts, result.collisions, result.idle_slots) == (
            1, 0, n_minislots - 1,
        )

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
