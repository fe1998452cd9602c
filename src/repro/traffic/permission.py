"""Permission-probability gating of request transmissions.

Section 2 of the paper: to avoid excessive collisions, a device with packets
awaiting transmission only attempts to send a request in a given minislot
with a certain *permission probability* — ``p_v`` for voice and ``p_d`` for
data requests.
"""

from __future__ import annotations

__all__ = ["PermissionPolicy"]


class PermissionPolicy:
    """Per-class permission probabilities of contention attempts.

    The one owner of the class-to-probability rule: a voice candidate
    transmits with ``p_v``, a data candidate with ``p_d``.  The Bernoulli
    draws themselves happen in
    :func:`~repro.mac.contention.run_contention_ids`, which reads both
    probabilities from here and applies ``p_v`` to the candidates below
    ``n_voice`` (the voice prefix of its ascending ids) and ``p_d`` to the
    rest.

    Parameters
    ----------
    voice_probability:
        Permission probability ``p_v`` in ``(0, 1]``.
    data_probability:
        Permission probability ``p_d`` in ``(0, 1]``.
    """

    def __init__(self, voice_probability: float, data_probability: float) -> None:
        for name, value in (("voice_probability", voice_probability),
                            ("data_probability", data_probability)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")
        self._pv = float(voice_probability)
        self._pd = float(data_probability)

    @property
    def voice_probability(self) -> float:
        """Permission probability for voice requests."""
        return self._pv

    @property
    def data_probability(self) -> float:
        """Permission probability for data requests."""
        return self._pd
