"""CHARISMA's request-priority metric (paper equation (2)).

Every request gathered by the base station — new, backlogged, or an
auto-generated voice reservation — receives a scalar priority that blends

* the **channel term**: the normalised throughput the adaptive PHY would
  deliver at the request's estimated CSI (``f(CSI)``), weighted by ``alpha``;
  users in good channels use the bandwidth more effectively, so they are
  preferred;
* the **urgency term**: for voice, an exponential of the number of frames
  remaining to the head-of-line packet's deadline (forgetting factor
  ``beta_v``) — the closer the deadline, the larger the term; for data, one
  minus an exponential of the waiting time (forgetting factor ``beta_d``) —
  the longer a request has waited, the larger the term;
* the **service-class offset** ``V`` added to voice requests so that voice
  always outranks data at comparable channel conditions.

The weights live in :class:`repro.config.PriorityWeights`, so experiments can
ablate the relative importance of urgency, channel quality and traffic type
exactly as the paper's discussion of the ``alpha``/``beta``/``V`` parameters
suggests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import PriorityWeights
from repro.mac.base import Modem

__all__ = ["PriorityCalculator"]


class PriorityCalculator:
    """Computes the CHARISMA priority of a pending request.

    Parameters
    ----------
    weights:
        The metric's tunable weights (``alpha``, ``beta``, ``V``).
    modem:
        The adaptive modem used to translate an estimated CSI amplitude into
        the normalised throughput ``f(CSI)``.
    """

    def __init__(self, weights: PriorityWeights, modem: Modem) -> None:
        self._weights = weights
        self._modem = modem

    @property
    def weights(self) -> PriorityWeights:
        """The metric's weights."""
        return self._weights

    # ------------------------------------------------------------------ API
    def priorities_columns(
        self,
        columns,
        current_frame: int,
        channel: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Priority of every request of a column pool at ``current_frame``.

        Reads a :class:`~repro.mac.requests.RequestColumns` pool (NaN
        amplitude = no estimate, deadline ``-1`` = none) and evaluates
        ``alpha * f(CSI) + urgency + V`` element-wise: the voice urgency
        decays with the frames left to the deadline, the data urgency grows
        with the frames waited.  ``channel`` optionally supplies the
        precomputed ``f(CSI)`` column (0 where no estimate is attached) so
        a caller that already performed the frame's mode lookup shares it
        instead of paying a second amplitude-to-mode conversion.
        """
        n = len(columns)
        if n == 0:
            return np.zeros(0, dtype=float)
        w = self._weights
        voice = columns.is_voice
        if channel is None:
            amplitudes = columns.csi_amplitudes
            known = ~np.isnan(amplitudes)
            if known.all():
                channel = np.asarray(
                    self._modem.throughput(amplitudes), dtype=float
                )
            else:
                channel = np.zeros(n, dtype=float)
                if known.any():
                    channel[known] = np.asarray(
                        self._modem.throughput(amplitudes[known]), dtype=float
                    )
        # A ``-1`` (no-deadline) sentinel clamps to horizon 0 on its own.
        horizon = np.where(
            voice,
            np.maximum(0, columns.deadline_frames - current_frame),
            np.maximum(0, current_frame - columns.arrival_frames),
        ).astype(float)
        urgency = np.where(
            voice,
            w.urgency_weight_voice * np.power(w.beta_voice, horizon),
            w.urgency_weight_data * (1.0 - np.power(w.beta_data, horizon)),
        )
        if w.alpha_voice == w.alpha_data:
            weighted = w.alpha_voice * channel
        else:
            weighted = np.where(voice, w.alpha_voice, w.alpha_data) * channel
        offset = np.where(voice, w.voice_offset, 0.0)
        return weighted + urgency + offset
