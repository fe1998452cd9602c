"""Short-term (fast) fading processes.

The paper models the short-term component ``c_s(t)`` as a Rayleigh-distributed
envelope with ``E[c_s^2] = 1`` and a coherence time of roughly ``1 / f_d``
(about 10 ms at 50 km/h).  Two samplers are provided:

* :class:`RayleighFading` — a first-order Gauss--Markov (AR(1)) recursion on
  the complex channel gain.  The lag-one correlation follows the Clarke model
  autocorrelation ``rho = J0(2 pi f_d dt)``, which preserves the coherence
  time while remaining O(1) per step.  This is the sampler used inside the
  frame-synchronous simulation engine.

* :class:`JakesFading` — a deterministic sum-of-sinusoids (Jakes) generator
  used to produce continuous fading traces for the Fig. 5 style plots and for
  validating the AR(1) sampler's second-order statistics.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import j0

__all__ = ["RayleighFading", "JakesFading", "clarke_correlation"]


def clarke_correlation(doppler_hz: float, dt: float) -> float:
    """Clarke-model temporal autocorrelation ``J0(2 pi f_d dt)``.

    Parameters
    ----------
    doppler_hz:
        Maximum Doppler shift in Hz.
    dt:
        Time separation in seconds.

    Returns
    -------
    float
        The normalised autocorrelation of the complex gain, clipped to
        ``[0, 1)`` so that the AR(1) recursion driven by it remains a proper
        (non-degenerate, stable) stochastic process even for very large
        ``f_d * dt`` where ``J0`` oscillates slightly negative.
    """
    if doppler_hz < 0:
        raise ValueError("doppler_hz must be non-negative")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    rho = float(j0(2.0 * math.pi * doppler_hz * dt))
    # A negative correlation from the oscillating Bessel tail would make the
    # Gauss-Markov recursion alternate sign unphysically; clamp to [0, 1).
    return min(max(rho, 0.0), 1.0 - 1e-12)


class RayleighFading:
    """AR(1) Gauss--Markov sampler of a Rayleigh-faded complex channel gain.

    The complex gain ``g_k`` evolves as::

        g_{k+1} = rho * g_k + sqrt(1 - rho^2) * w_k,     w_k ~ CN(0, sigma^2)

    with ``rho = J0(2 pi f_d dt)``.  The envelope ``|g_k|`` is Rayleigh with
    ``E[|g_k|^2] = mean_square`` (unity by default, as assumed in the paper).

    Parameters
    ----------
    doppler_hz:
        Maximum Doppler shift in Hz; controls the coherence time.
    sample_interval_s:
        Default time advance per :meth:`advance` call (the TDMA frame
        duration in the simulation engine).
    rng:
        NumPy random generator.  A dedicated generator per user keeps the
        per-user channels statistically independent as required by the paper.
    mean_square:
        Average envelope power ``E[c_s^2]``.
    """

    def __init__(
        self,
        doppler_hz: float,
        sample_interval_s: float,
        rng: np.random.Generator,
        mean_square: float = 1.0,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if mean_square <= 0:
            raise ValueError("mean_square must be positive")
        self._doppler_hz = float(doppler_hz)
        self._dt = float(sample_interval_s)
        self._rng = rng
        self._mean_square = float(mean_square)
        self._rho = clarke_correlation(self._doppler_hz, self._dt)
        self._sigma_component = math.sqrt(self._mean_square / 2.0)
        self._gain = self._draw_stationary()

    # ------------------------------------------------------------------ API
    @property
    def doppler_hz(self) -> float:
        """Maximum Doppler shift of the process in Hz."""
        return self._doppler_hz

    @property
    def sample_interval_s(self) -> float:
        """Default advance interval in seconds."""
        return self._dt

    @property
    def correlation(self) -> float:
        """Lag-one correlation of the complex gain at the default interval."""
        return self._rho

    @property
    def complex_gain(self) -> complex:
        """Current complex channel gain."""
        return complex(self._gain)

    @property
    def envelope(self) -> float:
        """Current fading envelope ``|g|`` (the CSI amplitude contribution)."""
        return abs(self._gain)

    @property
    def power(self) -> float:
        """Current instantaneous power ``|g|^2``."""
        return abs(self._gain) ** 2

    def advance(self, dt: Optional[float] = None) -> float:
        """Advance the process by ``dt`` seconds and return the new envelope.

        When ``dt`` differs from the construction-time sample interval the
        correlation coefficient is recomputed for that specific step, so the
        process remains consistent under irregular sampling.
        """
        if dt is None or dt == self._dt:
            rho = self._rho
        else:
            if dt <= 0:
                raise ValueError("dt must be positive")
            rho = clarke_correlation(self._doppler_hz, dt)
        innovation_scale = self._sigma_component * math.sqrt(1.0 - rho * rho)
        noise = self._rng.normal(scale=innovation_scale) + 1j * self._rng.normal(
            scale=innovation_scale
        )
        self._gain = rho * self._gain + noise
        return abs(self._gain)

    def reset(self) -> float:
        """Redraw the state from the stationary distribution."""
        self._gain = self._draw_stationary()
        return abs(self._gain)

    def trace(self, n_samples: int, dt: Optional[float] = None) -> np.ndarray:
        """Generate ``n_samples`` successive envelope samples.

        The internal state is advanced, i.e. the trace continues from the
        current gain rather than restarting from the stationary distribution.

        The whole trace is produced by one batched noise draw and one
        linear-filter evaluation of the AR(1) recursion instead of a Python
        loop of :meth:`advance` calls.  The draw order (real, imaginary per
        step) matches the loop exactly, so both paths consume the generator
        identically and realise the same process; the samples agree with
        the per-step path to within a few ULP (the filter's accumulation
        order differs slightly).
        """
        if n_samples < 0:
            raise ValueError("n_samples must be non-negative")
        if n_samples == 0:
            return np.empty(0, dtype=float)
        rho = self._step_correlation(dt)
        scale = self._sigma_component * math.sqrt(1.0 - rho * rho)
        noise = self._rng.normal(scale=scale, size=2 * n_samples)
        return self._trace_from_scaled_noise(noise[0::2], noise[1::2], rho)

    def _step_correlation(self, dt: Optional[float]) -> float:
        if dt is None or dt == self._dt:
            return self._rho
        if dt <= 0:
            raise ValueError("dt must be positive")
        return clarke_correlation(self._doppler_hz, dt)

    def _trace_from_scaled_noise(
        self, noise_real: np.ndarray, noise_imag: np.ndarray, rho: float
    ) -> np.ndarray:
        """Run the AR(1) recursion over pre-drawn (already scaled) noise.

        Split out so :meth:`repro.channel.composite.CompositeChannel.trace`
        can interleave its own draws with the shadowing process while
        reusing the same vectorised recursion.  A 1-D trace has no user axis
        to vectorise over, so it runs as a linear filter; ``scipy.signal``
        is imported here so that only these offline tools load it.
        """
        from scipy.signal import lfilter

        innovations = noise_real + 1j * noise_imag
        gains, _ = lfilter(
            [1.0],
            [1.0, -rho],
            innovations,
            zi=np.array([rho * self._gain], dtype=complex),
        )
        self._gain = complex(gains[-1])
        return np.abs(gains)

    # ------------------------------------------------------------ internals
    def _draw_stationary(self) -> complex:
        return complex(
            self._rng.normal(scale=self._sigma_component),
            self._rng.normal(scale=self._sigma_component),
        )


class JakesFading:
    """Sum-of-sinusoids (Jakes/Clarke) fading trace generator.

    This deterministic-phase generator produces a continuous fading waveform
    with the classic Clarke Doppler spectrum.  It is used to regenerate the
    Fig. 5 style "measured fading" sample and to cross-validate the AR(1)
    sampler in the test-suite; the simulation engine itself uses
    :class:`RayleighFading` for speed.

    Parameters
    ----------
    doppler_hz:
        Maximum Doppler shift in Hz.
    n_oscillators:
        Number of sinusoidal scatterers per quadrature branch.  Eight or more
        already gives an excellent Rayleigh approximation.
    rng:
        Random generator used to draw the scatterer phases.
    mean_square:
        Average envelope power.
    """

    def __init__(
        self,
        doppler_hz: float,
        n_oscillators: int = 16,
        rng: Optional[np.random.Generator] = None,
        mean_square: float = 1.0,
    ) -> None:
        if doppler_hz <= 0:
            raise ValueError("doppler_hz must be positive for a Jakes generator")
        if n_oscillators < 1:
            raise ValueError("n_oscillators must be >= 1")
        if mean_square <= 0:
            raise ValueError("mean_square must be positive")
        # Seedless convenience default for standalone/unit-test use only;
        # engine-owned instances always inject a RandomStreams generator.
        rng = rng if rng is not None else np.random.default_rng()  # lint: allow[RNG001]
        self._fd = float(doppler_hz)
        self._n = int(n_oscillators)
        self._mean_square = float(mean_square)
        # Scatterer arrival angles spread uniformly around the circle with a
        # random rotation; independent random phases per oscillator and branch.
        rotation = rng.uniform(0.0, 2.0 * math.pi)
        k = np.arange(self._n)
        self._angles = 2.0 * math.pi * (k + 0.5) / self._n + rotation
        self._phases_i = rng.uniform(0.0, 2.0 * math.pi, size=self._n)
        self._phases_q = rng.uniform(0.0, 2.0 * math.pi, size=self._n)

    @property
    def doppler_hz(self) -> float:
        """Maximum Doppler shift in Hz."""
        return self._fd

    def envelope_at(self, times_s: np.ndarray) -> np.ndarray:
        """Evaluate the fading envelope at the given times (seconds)."""
        times = np.asarray(times_s, dtype=float)
        omega = 2.0 * math.pi * self._fd * np.cos(self._angles)
        # (T, N) phase matrix, summed over scatterers per branch.
        arg = np.multiply.outer(times, omega)
        in_phase = np.cos(arg + self._phases_i).sum(axis=-1)
        quadrature = np.cos(arg + self._phases_q).sum(axis=-1)
        # Each branch sums N cosines with E[cos^2] = 1/2, so scaling by
        # sqrt(mean_square / N) gives E[I^2 + Q^2] = mean_square.
        scale = math.sqrt(self._mean_square / self._n)
        return np.hypot(scale * in_phase, scale * quadrature)

    def trace(self, duration_s: float, sample_interval_s: float) -> np.ndarray:
        """Generate a uniformly sampled envelope trace of the given duration."""
        if duration_s <= 0 or sample_interval_s <= 0:
            raise ValueError("duration_s and sample_interval_s must be positive")
        n = int(round(duration_s / sample_interval_s))
        times = np.arange(n) * sample_interval_s
        return self.envelope_at(times)
