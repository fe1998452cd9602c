"""Multi-beam constellation scenarios.

A :class:`ConstellationScenario` describes ``n_beams`` spot beams, each an
independent copy of the single-cell world the paper models: its own
terminal population, MAC instance and channel.  Cross-beam physics enters
only through two block-boundary couplings — talkspurt-boundary terminal
handover and frequency-reuse interference — so each beam advances through
the existing columnar/macro kernels undisturbed between barriers.

The single-beam degenerate case (``n_beams=1``, no coupling) is
bit-identical to the equivalent :class:`~repro.sim.scenario.Scenario` run
in parity RNG mode: beam 0's random streams use an empty spawn-key prefix,
matching the classic derivation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional

from repro.config import SimulationParameters
from repro.sim.scenario import Scenario

__all__ = ["ConstellationScenario"]

#: The :class:`Scenario` fields a constellation shares with each beam: all
#: of them but ``engine_backend``, which a constellation does not carry.
_SHARED_FIELDS = tuple(
    field.name for field in fields(Scenario) if field.name != "engine_backend"
)


@dataclass(frozen=True)
class ConstellationScenario:
    """N beams, one protocol, one per-beam traffic mix, one seed.

    Attributes
    ----------
    protocol:
        Registry name of the MAC protocol every beam runs.
    n_beams:
        Number of spot beams (independent shards).
    n_voice:
        Voice terminals **per beam**.
    n_data:
        Data terminals **per beam**.
    use_request_queue:
        Whether each beam's base station keeps the optional request queue.
    duration_s / warmup_s / seed / mobile_speed_kmh / rng_mode / macro_frames:
        As on :class:`~repro.sim.scenario.Scenario`; shared by every beam.
        ``macro_frames`` doubles as the coupling block size — cross-beam
        state is exchanged every ``macro_frames`` frames.
    handover_rate:
        Per-block probability that an idle voice terminal is handed over to
        a co-channel neighbour beam (state swap with an idle peer slot).
        ``0.0`` disables handover; requires ``n_beams >= 2`` to take effect.
    coupling_db:
        Frequency-reuse interference coupling strength in dB.  Each beam's
        SNR is reduced by ``coupling_db`` scaled by the mean busy-load of
        its co-channel beams, re-evaluated at every block boundary.
        ``0.0`` disables interference coupling (bit-exactness preserved).
    reuse_factor:
        Frequency-reuse factor; beams ``b`` and ``b'`` share a channel
        (and hence interfere) iff ``b % reuse_factor == b' % reuse_factor``.
    """

    protocol: str
    n_beams: int
    n_voice: int
    n_data: int
    use_request_queue: bool = False
    duration_s: float = 10.0
    warmup_s: float = 1.0
    seed: int = 0
    mobile_speed_kmh: Optional[float] = None
    rng_mode: str = "parity"
    macro_frames: int = 1
    handover_rate: float = 0.0
    coupling_db: float = 0.0
    reuse_factor: int = 1

    def __post_init__(self) -> None:
        self._cell()  # validates the fields shared with Scenario
        if self.n_beams < 1:
            raise ValueError("n_beams must be at least 1")
        if not 0.0 <= self.handover_rate <= 1.0:
            raise ValueError("handover_rate must be within [0, 1]")
        if self.handover_rate > 0.0 and self.n_voice < 1:
            raise ValueError("handover_rate > 0 requires voice terminals")
        if self.coupling_db < 0.0:
            raise ValueError("coupling_db must be non-negative")
        if self.reuse_factor < 1:
            raise ValueError("reuse_factor must be at least 1")
        if self.reuse_factor > self.n_beams:
            raise ValueError("reuse_factor must not exceed n_beams")

    # ------------------------------------------------------------ geometry
    @property
    def n_terminals(self) -> int:
        """Total number of terminals across the whole constellation."""
        return self.n_beams * (self.n_voice + self.n_data)

    @property
    def terminals_per_beam(self) -> int:
        """Number of terminals in each beam."""
        return self.n_voice + self.n_data

    @property
    def has_coupling(self) -> bool:
        """Whether any cross-beam interaction is active between blocks."""
        return self.n_beams > 1 and (
            self.handover_rate > 0.0 or self.coupling_db > 0.0
        )

    # ------------------------------------------------------------- timing
    def measured_frames(self, params: SimulationParameters) -> int:
        """Number of measured frames implied by ``duration_s``."""
        return self._cell().measured_frames(params)

    def warmup_frames(self, params: SimulationParameters) -> int:
        """Number of warm-up frames implied by ``warmup_s``."""
        return self._cell().warmup_frames(params)

    # ------------------------------------------------------------- copies
    def with_overrides(self, **overrides: Any) -> "ConstellationScenario":
        """Copy of the scenario with some fields replaced."""
        return replace(self, **overrides)

    def beam_scenario(self, beam: int) -> Scenario:
        """The single-cell :class:`Scenario` a given beam shard runs.

        Every beam shares the constellation's protocol, mix and timing; the
        per-beam random streams differ through the shard's spawn key, not
        through the scenario seed, so beam 0 remains bit-identical to a
        plain single-cell run under the same master seed.
        """
        if not 0 <= beam < self.n_beams:
            raise ValueError(
                f"beam {beam} outside the constellation's 0..{self.n_beams - 1} range"
            )
        return self._cell()

    def _cell(self) -> Scenario:
        """The single-cell scenario of the fields shared with every beam."""
        return Scenario(**{name: getattr(self, name) for name in _SHARED_FIELDS})

    def label(self) -> str:
        """Compact human-readable identifier used in tables and logs."""
        queue = "queue" if self.use_request_queue else "noqueue"
        return (
            f"{self.protocol}[beams={self.n_beams},Nv={self.n_voice},"
            f"Nd={self.n_data},{queue},seed={self.seed}]"
        )
