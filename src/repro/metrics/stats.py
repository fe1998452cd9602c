"""Simulation output statistics.

Single long runs of a steady-state simulation produce correlated per-frame
observations; the classic remedy used here is the *method of batch means*: a
run is divided into equal batches, the batch averages are treated as
approximately independent samples, and a Student-t confidence interval is
attached to their mean.  :class:`RunningStatistics` provides the usual
single-pass (Welford) mean/variance accumulator used by the collectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["RunningStatistics", "batch_means_confidence_interval"]


class RunningStatistics:
    """Numerically stable single-pass mean / variance accumulator (Welford)."""

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def update(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        value = float(value)
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def update_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations into the running statistics."""
        for value in values:
            self.update(value)

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self._mean if self._n else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 when fewer than two observations)."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max


def batch_means_confidence_interval(
    observations: Sequence[float],
    n_batches: int = 10,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Mean and half-width of a batch-means confidence interval.

    Parameters
    ----------
    observations:
        Per-frame (or per-sample) observations of one long run, in order.
    n_batches:
        Number of equal-size batches; a leftover tail shorter than a batch is
        discarded.
    confidence:
        Confidence level of the Student-t interval.

    Returns
    -------
    (mean, half_width):
        The grand mean of the batch means and the half-width of its
        confidence interval (0 when fewer than two batches are available).
    """
    if n_batches < 1:
        raise ValueError("n_batches must be at least 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    values = np.asarray(list(observations), dtype=float)
    if values.size == 0:
        return 0.0, 0.0
    batch_size = values.size // n_batches
    if batch_size == 0:
        return float(values.mean()), 0.0
    usable = values[: batch_size * n_batches].reshape(n_batches, batch_size)
    batch_means = usable.mean(axis=1)
    grand_mean = float(batch_means.mean())
    if n_batches < 2:
        return grand_mean, 0.0
    sem = float(batch_means.std(ddof=1) / math.sqrt(n_batches))
    # Imported here, as in ``repro.api.resultset``, so that ``import repro``
    # does not load scipy.stats.
    from scipy import stats as scipy_stats

    t_value = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n_batches - 1))
    return grand_mean, t_value * sem
