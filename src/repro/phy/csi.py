"""Channel-state-information estimation and staleness tracking.

A critical component of the CHARISMA protocol (paper Section 4.4) is how the
base station learns each requester's CSI:

* a *new* request carries known pilot symbols, from which the base station
  estimates the sender's CSI; because the short-term coherence time (~10 ms)
  spans several 2.5 ms frames, that estimate remains valid for roughly two
  frames;
* a *backlog* request's estimate eventually goes stale; the base station then
  short-lists up to ``N_b`` backlog requests per frame and polls them — the
  polled devices transmit pilot symbols in the pilot-symbol subframe, giving
  fresh estimates valid for another couple of frames.

:class:`CSIEstimator` models pilot-based estimation as the true amplitude
corrupted by a zero-mean Gaussian error whose standard deviation shrinks with
the number of pilot symbols and with the receive SNR.  The estimates are
plain amplitude columns; the request columns carry each estimate's frame
stamp for the staleness decisions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSIEstimator"]


class CSIEstimator:
    """Pilot-symbol CSI estimator at the base station.

    Parameters
    ----------
    n_pilot_symbols:
        Number of known pilot symbols available per estimate.
    mean_snr_db:
        Average SNR at unit amplitude; higher SNR means a cleaner estimate.
    validity_frames:
        Validity window attached to produced estimates.
    rng:
        Random generator for the estimation noise.
    perfect:
        If True the estimator returns the true amplitude (useful for
        ablations isolating the scheduling gain from estimation error).
    """

    def __init__(
        self,
        n_pilot_symbols: int = 16,
        mean_snr_db: float = 18.0,
        validity_frames: int = 2,
        rng: np.random.Generator | None = None,
        perfect: bool = False,
    ) -> None:
        if n_pilot_symbols < 1:
            raise ValueError("n_pilot_symbols must be at least 1")
        if validity_frames < 1:
            raise ValueError("validity_frames must be at least 1")
        self._n_pilots = int(n_pilot_symbols)
        self._mean_snr_linear = 10.0 ** (float(mean_snr_db) / 10.0)
        self._validity = int(validity_frames)
        # Seedless convenience default for standalone/unit-test use only;
        # engine-owned instances always inject a RandomStreams generator.
        self._rng = rng if rng is not None else np.random.default_rng()  # lint: allow[RNG001]
        self._perfect = bool(perfect)

    # ------------------------------------------------------------------ API
    @property
    def n_pilot_symbols(self) -> int:
        """Number of pilot symbols per estimate."""
        return self._n_pilots

    @property
    def validity_frames(self) -> int:
        """Validity window attached to produced estimates."""
        return self._validity

    @property
    def perfect(self) -> bool:
        """Whether estimation noise is disabled."""
        return self._perfect

    @property
    def noise_rng(self) -> np.random.Generator:
        """The generator the estimation noise is drawn from.

        Exposed so block-stepped callers can prefetch standard normals from
        the *same* stream (``noise = std * z`` with ``z`` consumed element
        by element, exactly like :meth:`estimate_amplitudes`'s batched
        ``Generator.normal`` call) and roll back unconsumed draws — the
        macro engine's CSI pooling in fast RNG mode.
        """
        return self._rng

    def estimation_std(self, true_amplitude: float) -> float:
        """Standard deviation of the amplitude estimation error.

        Pilot-based ML estimation of a complex gain from ``N`` pilots at SNR
        ``gamma`` has an error variance of roughly ``1 / (N * gamma)`` on the
        complex gain; for the amplitude we use the same scale, floored at the
        true amplitude's own magnitude contribution so deep fades remain
        estimable.
        """
        if true_amplitude < 0:
            raise ValueError("true_amplitude must be non-negative")
        if self._perfect:
            return 0.0
        return float(np.sqrt(1.0 / (2.0 * self._n_pilots * self._mean_snr_linear)))

    def estimate_amplitudes(self, true_amplitudes, frame_index: int) -> np.ndarray:
        """Estimate several amplitudes with one batched noise draw.

        Each estimate is the true amplitude plus zero-mean Gaussian noise of
        :meth:`estimation_std`, clamped at zero; a perfect estimator returns
        the true amplitudes.  ``Generator.normal`` fills the noise array
        element by element, so one call consumes the stream exactly like
        one scalar draw per amplitude, in order.  The caller stamps the
        estimates with ``frame_index`` in its own request columns.
        """
        amplitudes = np.asarray(true_amplitudes, dtype=float)
        if amplitudes.size == 0:
            return np.zeros(0, dtype=float)
        if np.any(amplitudes < 0):
            raise ValueError("true_amplitude must be non-negative")
        if self._perfect:
            return amplitudes.astype(float, copy=True)
        std = self.estimation_std(0.0)
        values = amplitudes + self._rng.normal(scale=std, size=amplitudes.shape[0])
        return np.maximum(0.0, values)
