"""Packet-level transmission error model.

The paper's loss accounting distinguishes *packet dropping* (a voice packet
missing its deadline at the sender) from *packet transmission error* (a
transmitted packet corrupted by the channel).  :class:`PacketErrorModel`
produces the latter: given the modem in use and the transmitter's composite
channel amplitude at transmission time, it decides stochastically whether
each transmitted packet is received error-free.

Both the adaptive and the fixed-rate modem expose
``packet_success_probability(amplitude)``; the error model simply draws
Bernoulli outcomes from a dedicated random stream so that error realisations
are reproducible and independent of the traffic/contention randomness.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.phy.abicm import AdaptiveModem
from repro.phy.fixed import FixedRateModem
from repro.lint.contracts import kernel

__all__ = ["PacketErrorModel"]

Modem = Union[AdaptiveModem, FixedRateModem]


class PacketErrorModel:
    """Bernoulli packet-error sampler on top of a modem's success probability.

    Parameters
    ----------
    modem:
        The physical layer in use (adaptive or fixed-rate).
    rng:
        Random generator dedicated to channel-error draws.
    """

    def __init__(self, modem: Modem, rng: np.random.Generator) -> None:
        self._modem = modem
        self._rng = rng

    @property
    def modem(self) -> Modem:
        """The modem whose success probabilities drive the error draws."""
        return self._modem

    def success_probability(
        self, amplitude: float, throughput: float | None = None
    ) -> float:
        """Per-packet success probability at the given channel amplitude.

        ``throughput`` overrides the mode the modem would pick from the
        *current* amplitude — used when a previously announced mode is
        transmitted over a channel that has since changed.
        """
        return self._modem.packet_success_probability(amplitude, throughput)

    def transmit_packet(self, amplitude: float, throughput: float | None = None) -> bool:
        """Simulate one packet transmission; ``True`` if received error-free."""
        return bool(self._rng.random() < self.success_probability(amplitude, throughput))

    def transmit_packets(
        self, amplitude: float, n_packets: int, throughput: float | None = None
    ) -> int:
        """Simulate ``n_packets`` transmissions in the same slot/channel state.

        Returns the number of packets received without error.  All packets in
        the same information slot see the same channel state (the coherence
        time far exceeds a slot duration), hence a single success probability
        and a binomial draw.
        """
        if n_packets < 0:
            raise ValueError("n_packets must be non-negative")
        if n_packets == 0:
            return 0
        p = self.success_probability(amplitude, throughput)
        return int(self._rng.binomial(n_packets, p))

    @kernel
    def success_probabilities(
        self, amplitudes, throughputs=None, snr_db=None
    ) -> np.ndarray:
        """Vectorised per-grant success probabilities.

        ``throughputs`` may be ``None`` or contain ``np.nan`` entries, which
        select the modem's default mode at the corresponding amplitude —
        bit-identical to calling :meth:`success_probability` per element.
        ``snr_db`` optionally supplies the per-grant SNRs (snapshot
        convention) to skip the amplitude conversion.
        """
        return self._modem.packet_success_probabilities(
            amplitudes, throughputs, snr_db=snr_db
        )

    @kernel
    def transmit_batch(
        self, amplitudes, n_packets, throughputs=None, snr_db=None
    ) -> np.ndarray:
        """Simulate one frame's grants in a single vectorised call.

        Parameters
        ----------
        amplitudes:
            Channel amplitude per grant at transmission time, shape ``(n,)``.
        n_packets:
            Packets transmitted per grant (all positive; zero-packet grants
            must be filtered out by the caller, matching the scalar path
            where :meth:`transmit_packets` returns early without consuming
            randomness).
        throughputs:
            Announced transmission mode per grant; ``np.nan`` entries (or
            ``None`` for the whole batch) select the modem default.
        snr_db:
            Optional precomputed per-grant SNRs (the channel snapshot's
            convention), skipping the amplitude-to-SNR conversion.

        Returns
        -------
        numpy.ndarray
            Packets received without error per grant.

        RNG-stream compatibility
        ------------------------
        NumPy's :meth:`~numpy.random.Generator.binomial` consumes the
        underlying bit stream element by element, so this single batched
        draw returns exactly the values (and leaves exactly the generator
        state) that sequential :meth:`transmit_packets` calls over the same
        grants would — so macro-stepped runs, which batch many frames'
        grants into one draw, stay bit-identical to per-frame runs.
        """
        counts = np.asarray(n_packets, dtype=np.int64)
        if counts.size == 0:
            return np.zeros(0, dtype=np.int64)
        if counts.min() <= 0:
            raise ValueError(
                "transmit_batch requires positive per-grant packet counts; "
                "filter zero-packet grants out (the scalar path skips them "
                "without drawing)"
            )
        probabilities = self.success_probabilities(
            amplitudes, throughputs, snr_db=snr_db
        )
        return self._rng.binomial(counts, probabilities)
