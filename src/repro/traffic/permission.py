"""Permission-probability gating of request transmissions.

Section 2 of the paper: to avoid excessive collisions, a device with packets
awaiting transmission only attempts to send a request in a given minislot
with a certain *permission probability* — ``p_v`` for voice and ``p_d`` for
data requests.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.packets import TrafficKind

__all__ = ["PermissionPolicy"]


class PermissionPolicy:
    """Bernoulli gating of contention attempts by service class.

    Parameters
    ----------
    voice_probability:
        Permission probability ``p_v`` in ``(0, 1]``.
    data_probability:
        Permission probability ``p_d`` in ``(0, 1]``.
    rng:
        Random generator for the Bernoulli draws.
    """

    def __init__(
        self,
        voice_probability: float,
        data_probability: float,
        rng: np.random.Generator,
    ) -> None:
        for name, value in (("voice_probability", voice_probability),
                            ("data_probability", data_probability)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        self._pv = float(voice_probability)
        self._pd = float(data_probability)
        self._rng = rng

    @property
    def voice_probability(self) -> float:
        """Permission probability for voice requests."""
        return self._pv

    @property
    def data_probability(self) -> float:
        """Permission probability for data requests."""
        return self._pd

    def probability_for(self, kind: TrafficKind) -> float:
        """Permission probability applicable to the given service class."""
        return self._pv if kind.is_voice else self._pd

    def permits(self, kind: TrafficKind) -> bool:
        """Draw whether a device of the given class may contend right now."""
        return bool(self._rng.random() < self.probability_for(kind))
