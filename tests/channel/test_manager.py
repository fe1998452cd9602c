"""Tests for the vectorised channel manager."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.doppler import DopplerModel
from repro.channel.manager import ChannelManager, ChannelSnapshot


def make(n_users=8, seed=0, **kw):
    kw.setdefault("rng", np.random.default_rng(seed))
    return ChannelManager(n_users, DopplerModel(speed_kmh=50.0), **kw)


class TestChannelManager:
    def test_snapshot_shapes(self):
        mgr = make(n_users=5)
        snap = mgr.advance_frame()
        assert isinstance(snap, ChannelSnapshot)
        assert snap.amplitude.shape == (5,)
        assert snap.snr_db.shape == (5,)
        assert snap.n_users == 5

    def test_amplitudes_positive(self):
        mgr = make(n_users=16, seed=1)
        for _ in range(50):
            snap = mgr.advance_frame()
            assert np.all(snap.amplitude > 0.0)

    def test_frame_counter_increments(self):
        mgr = make()
        assert mgr.frame_index == 0
        mgr.advance_frame()
        mgr.advance_frame()
        assert mgr.frame_index == 2

    def test_zero_users_is_legal(self):
        mgr = make(n_users=0)
        snap = mgr.advance_frame()
        assert snap.amplitude.shape == (0,)

    def test_users_fade_independently(self):
        """Different users' amplitude traces should be essentially uncorrelated."""
        mgr = make(n_users=2, seed=2, shadow_std_db=0.0)
        trace = np.array([mgr.advance_frame().amplitude for _ in range(4000)])
        corr = np.corrcoef(trace[:, 0], trace[:, 1])[0, 1]
        assert abs(corr) < 0.12

    def test_mean_square_near_unity_without_shadowing(self):
        mgr = make(n_users=4, seed=3, shadow_std_db=0.0)
        trace = np.array([mgr.advance_frame().amplitude for _ in range(8000)])
        assert np.mean(trace**2) == pytest.approx(1.0, rel=0.1)

    def test_snr_is_mean_snr_plus_amplitude_db(self):
        mgr = make(n_users=3, seed=4, mean_snr_db=15.0)
        snap = mgr.advance_frame()
        expected = 15.0 + 20.0 * np.log10(snap.amplitude)
        np.testing.assert_allclose(snap.snr_db, expected)

    def test_reproducible_with_same_seed(self):
        a = make(seed=5).advance_frame().amplitude
        b = make(seed=5).advance_frame().amplitude
        np.testing.assert_allclose(a, b)

    def test_reset_restores_frame_counter(self):
        mgr = make(seed=6)
        mgr.advance_frame()
        mgr.reset()
        assert mgr.frame_index == 0

    def test_per_user_doppler_list(self):
        dopplers = [DopplerModel(speed_kmh=10.0), DopplerModel(speed_kmh=80.0)]
        mgr = ChannelManager(2, dopplers, rng=np.random.default_rng(0))
        assert mgr.dopplers[0].speed_kmh == 10.0
        assert mgr.dopplers[1].speed_kmh == 80.0

    def test_mismatched_doppler_list_rejected(self):
        with pytest.raises(ValueError):
            ChannelManager(3, [DopplerModel()] * 2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ChannelManager(-1, DopplerModel())
        with pytest.raises(ValueError):
            ChannelManager(1, DopplerModel(), frame_duration_s=0.0)
        with pytest.raises(ValueError):
            ChannelManager(1, DopplerModel(), shadow_std_db=-1.0)
        with pytest.raises(ValueError):
            ChannelManager(1, DopplerModel(), shadow_decorrelation_s=0.0)

    def test_snapshot_accessors(self):
        mgr = make(n_users=4, seed=7)
        snap = mgr.advance_frame()
        assert snap.read(2) == snap.amplitude[2]
        assert snap.read(2, snr_db=True) == snap.snr_db[2]
        np.testing.assert_array_equal(snap.gather([3, 0, 3]), snap.amplitude[[3, 0, 3]])
        np.testing.assert_array_equal(
            snap.gather(np.array([1, 2]), snr_db=True), snap.snr_db[[1, 2]]
        )

    def test_higher_speed_decorrelates_faster(self):
        slow = ChannelManager(1, DopplerModel(speed_kmh=5.0),
                              rng=np.random.default_rng(8), shadow_std_db=0.0)
        fast = ChannelManager(1, DopplerModel(speed_kmh=80.0),
                              rng=np.random.default_rng(8), shadow_std_db=0.0)
        slow_trace = np.array([slow.advance_frame().amplitude[0] for _ in range(3000)])
        fast_trace = np.array([fast.advance_frame().amplitude[0] for _ in range(3000)])

        def lag1(x):
            return np.corrcoef(x[:-1], x[1:])[0, 1]

        assert lag1(slow_trace) > lag1(fast_trace)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_snapshot_shape_property(self, n_users):
        mgr = make(n_users=n_users, seed=9)
        snap = mgr.advance_frame()
        assert snap.amplitude.shape == (n_users,)
        assert np.all(np.isfinite(snap.amplitude))
