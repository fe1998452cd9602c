"""Tests for CSI estimation and staleness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.csi_polling import CSIPoller
from repro.mac.requests import RequestColumns
from repro.phy.csi import CSIEstimator


class TestCSIEstimator:
    def test_perfect_estimator_returns_truth(self):
        est = CSIEstimator(perfect=True, rng=np.random.default_rng(0))
        truth = np.array([0.1, 1.0, 2.5])
        estimates = est.estimate_amplitudes(truth, 3)
        assert estimates.tolist() == truth.tolist()
        assert estimates is not truth

    def test_noisy_estimate_close_to_truth(self):
        est = CSIEstimator(n_pilot_symbols=16, mean_snr_db=18.0,
                           rng=np.random.default_rng(1))
        errors = est.estimate_amplitudes(np.ones(2000), 0) - 1.0
        assert abs(np.mean(errors)) < 0.01
        assert np.std(errors) == pytest.approx(est.estimation_std(1.0), rel=0.1)

    def test_more_pilots_better_estimate(self):
        few = CSIEstimator(n_pilot_symbols=2, rng=np.random.default_rng(2))
        many = CSIEstimator(n_pilot_symbols=64, rng=np.random.default_rng(2))
        assert many.estimation_std(1.0) < few.estimation_std(1.0)

    def test_higher_snr_better_estimate(self):
        low = CSIEstimator(mean_snr_db=5.0, rng=np.random.default_rng(3))
        high = CSIEstimator(mean_snr_db=25.0, rng=np.random.default_rng(3))
        assert high.estimation_std(1.0) < low.estimation_std(1.0)

    def test_estimates_never_negative(self):
        est = CSIEstimator(n_pilot_symbols=1, mean_snr_db=0.0,
                           rng=np.random.default_rng(4))
        estimates = est.estimate_amplitudes(np.full(500, 0.01), 0)
        assert (estimates >= 0.0).all()
        assert (estimates == 0.0).any()  # the noise did push some below zero

    def test_frame_stamp_and_validity_propagated(self):
        """Estimates stamped at frame 42 stay fresh for the estimator's
        validity window, then the poller treats them as stale."""
        est = CSIEstimator(validity_frames=3, rng=np.random.default_rng(5))
        columns = RequestColumns(
            terminal_ids=np.array([0], dtype=np.int64),
            is_voice=np.array([False]),
            arrival_frames=np.array([42], dtype=np.int64),
            deadline_frames=np.array([-1], dtype=np.int64),
            csi_amplitudes=est.estimate_amplitudes([1.0], 42),
            csi_frames=np.array([42], dtype=np.int64),
            csi_validity=est.validity_frames,
        )
        poller = CSIPoller(est, 1)
        assert poller.stale_rows(columns, 44).tolist() == []
        assert poller.stale_rows(columns, 45).tolist() == [0]

    def test_estimate_many(self):
        """One batched call consumes the stream like one draw per amplitude."""
        truth = np.array([0.5, 1.0, 1.5])
        batched = CSIEstimator(rng=np.random.default_rng(6))
        single = CSIEstimator(rng=np.random.default_rng(6))
        estimates = batched.estimate_amplitudes(truth, 7)
        one_by_one = [single.estimate_amplitudes([a], 7)[0] for a in truth]
        assert estimates.tolist() == one_by_one
        assert batched.estimate_amplitudes([], 7).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            CSIEstimator(n_pilot_symbols=0)
        with pytest.raises(ValueError):
            CSIEstimator(validity_frames=0)
        with pytest.raises(ValueError):
            CSIEstimator().estimation_std(-1.0)
        with pytest.raises(ValueError):
            CSIEstimator().estimate_amplitudes([1.0, -0.1], 0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=0, max_value=1000))
    def test_estimate_nonnegative_property(self, amp, frame):
        est = CSIEstimator(rng=np.random.default_rng(7))
        estimates = est.estimate_amplitudes([amp], frame)
        assert estimates.shape == (1,)
        assert estimates[0] >= 0.0
