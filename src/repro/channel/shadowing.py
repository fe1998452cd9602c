"""Long-term (shadow) fading process.

The paper models the long-term component ``c_l(t)`` (the *local mean*) as
log-normally distributed in amplitude — equivalently Gaussian in dB — with a
fluctuation time scale of roughly one second, caused by terrain configuration
and obstacles.  We implement it as a dB-domain Gauss--Markov (Ornstein--
Uhlenbeck) process:

    x_{k+1} = m + a (x_k - m) + sqrt(1 - a^2) * sigma * w_k,   w_k ~ N(0, 1)

with ``a = exp(-dt / tau)`` where ``tau`` is the decorrelation time.  The
linear-amplitude shadowing gain is ``c_l = 10^{x / 20}``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["LogNormalShadowing"]


class LogNormalShadowing:
    """dB-domain Gauss--Markov log-normal shadowing process.

    Parameters
    ----------
    mean_db:
        Mean of the shadowing gain in dB (``m_l`` in the paper).  A value of
        0 dB means the long-term component neither amplifies nor attenuates
        on average.
    std_db:
        Standard deviation of the dB shadowing (``sigma_l``).  Typical
        macro-cell values are 4--8 dB; the default follows the moderate
        shadowing regime used throughout the evaluation.
    decorrelation_time_s:
        Time constant ``tau`` of the exponential autocorrelation.  The paper
        quotes a fluctuation time scale of about one second.
    sample_interval_s:
        Default time advance per :meth:`advance` call.
    rng:
        Random generator for this process.
    """

    def __init__(
        self,
        mean_db: float = 0.0,
        std_db: float = 6.0,
        decorrelation_time_s: float = 1.0,
        sample_interval_s: float = 0.0025,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if std_db < 0:
            raise ValueError("std_db must be non-negative")
        if decorrelation_time_s <= 0:
            raise ValueError("decorrelation_time_s must be positive")
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        self._mean_db = float(mean_db)
        self._std_db = float(std_db)
        self._tau = float(decorrelation_time_s)
        self._dt = float(sample_interval_s)
        # Seedless convenience default for standalone/unit-test use only;
        # engine-owned instances always inject a RandomStreams generator.
        self._rng = rng if rng is not None else np.random.default_rng()  # lint: allow[RNG001]
        self._a = math.exp(-self._dt / self._tau)
        self._state_db = self._draw_stationary()

    # ------------------------------------------------------------------ API
    @property
    def mean_db(self) -> float:
        """Mean shadowing level in dB."""
        return self._mean_db

    @property
    def std_db(self) -> float:
        """Standard deviation of the shadowing level in dB."""
        return self._std_db

    @property
    def decorrelation_time_s(self) -> float:
        """Exponential decorrelation time constant in seconds."""
        return self._tau

    @property
    def level_db(self) -> float:
        """Current shadowing level in dB."""
        return self._state_db

    @property
    def gain(self) -> float:
        """Current linear amplitude gain ``10^{level_db / 20}``."""
        return 10.0 ** (self._state_db / 20.0)

    def advance(self, dt: Optional[float] = None) -> float:
        """Advance by ``dt`` seconds and return the new linear gain."""
        if dt is None or dt == self._dt:
            a = self._a
        else:
            if dt <= 0:
                raise ValueError("dt must be positive")
            a = math.exp(-dt / self._tau)
        if self._std_db == 0.0:
            self._state_db = self._mean_db
            return self.gain
        innovation = self._rng.normal(scale=self._std_db * math.sqrt(1.0 - a * a))
        self._state_db = self._mean_db + a * (self._state_db - self._mean_db) + innovation
        return self.gain

    def reset(self) -> float:
        """Redraw the state from the stationary distribution."""
        self._state_db = self._draw_stationary()
        return self.gain

    def trace_db(self, n_samples: int, dt: Optional[float] = None) -> np.ndarray:
        """Generate ``n_samples`` successive dB-level samples.

        Vectorised: one batched shock draw (the same draw order as repeated
        :meth:`advance` calls) plus a linear-filter evaluation of the
        deviation-form AR(1) recursion, equivalent to the per-step loop up
        to floating-point association.
        """
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if n_samples == 0:
            return np.empty(0, dtype=float)
        a = self._step_coefficient(dt)
        if self._std_db == 0.0:
            self._state_db = self._mean_db
            return np.full(n_samples, self._mean_db, dtype=float)
        shocks = self._rng.normal(
            scale=self._std_db * math.sqrt(1.0 - a * a), size=n_samples
        )
        return self._trace_db_from_shocks(shocks, a)

    def _step_coefficient(self, dt: Optional[float]) -> float:
        if dt is None or dt == self._dt:
            return self._a
        if dt <= 0:
            raise ValueError("dt must be positive")
        return math.exp(-dt / self._tau)

    def _trace_db_from_shocks(self, shocks: np.ndarray, a: float) -> np.ndarray:
        """Run the dB-deviation AR(1) recursion over pre-drawn shocks.

        It runs as a linear filter; ``scipy.signal`` is imported here so
        that only the offline trace tools load it.
        """
        from scipy.signal import lfilter

        deviation = self._state_db - self._mean_db
        deviations, _ = lfilter(
            [1.0], [1.0, -a], shocks, zi=np.array([a * deviation], dtype=float)
        )
        levels = self._mean_db + deviations
        self._state_db = float(levels[-1])
        return levels

    # ------------------------------------------------------------ internals
    def _draw_stationary(self) -> float:
        if self._std_db == 0.0:
            return self._mean_db
        return float(self._rng.normal(loc=self._mean_db, scale=self._std_db))
