"""Scenario descriptions: what a single simulation run looks like."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import SimulationParameters

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """One cell, one protocol, one traffic mix, one seed.

    Attributes
    ----------
    protocol:
        Registry name of the protocol under test (``"charisma"``,
        ``"dtdma_vr"``, ``"dtdma_fr"``, ``"drma"``, ``"rama"``, ``"rmav"``).
    n_voice:
        Number of voice terminals in the cell.
    n_data:
        Number of data terminals in the cell.
    use_request_queue:
        Whether the base station keeps the optional request queue.
    duration_s:
        Measured simulation time (after warm-up), in seconds.
    warmup_s:
        Warm-up period whose statistics are discarded, in seconds.
    seed:
        Master seed of the run's random streams.
    mobile_speed_kmh:
        Optional override of the population's mobile speed (the Section 5.3.3
        speed ablation); ``None`` keeps the parameter default.
    engine_backend:
        Simulation core; ``"columnar"`` is the only one.  The field is kept
        because result payloads, run hashes and the store schema fingerprint
        include it; any other value raises ``ValueError``.
    rng_mode:
        Random-draw batching contract.  ``"parity"`` (default) draws every
        stochastic decision in a fixed scalar order — the order the golden
        baselines in ``tests/golden`` pin — so macro-stepped and per-frame
        runs are bit-identical under a common seed.  ``"fast"`` relaxes the
        ordering: stochastic subsystems draw from independent per-subsystem
        child streams (see :func:`repro.sim.rng.child_stream`) and batch a
        whole frame's draws into single calls.  Fast-mode runs are
        statistically equivalent to parity-mode runs (seed-averaged metrics
        agree within confidence intervals; asserted by
        ``tests/sim/test_rng_fast_mode.py``) but not bit-identical, which is
        the right trade for paper-scale sweeps.
    macro_frames:
        Recorded but not read: the engine steps blocks of its own
        :attr:`~repro.sim.engine.UplinkSimulationEngine.BLOCK_FRAMES` (64)
        frames, and the block size changes no result in either RNG mode
        (the golden baselines pin blocks of 1 and 64 to one digest).  Like
        ``engine_backend``, the field is kept because result payloads, run
        hashes and the store schema fingerprint include it; it must be at
        least 1.
    """

    protocol: str
    n_voice: int
    n_data: int
    use_request_queue: bool = False
    duration_s: float = 10.0
    warmup_s: float = 1.0
    seed: int = 0
    mobile_speed_kmh: Optional[float] = None
    engine_backend: str = "columnar"
    rng_mode: str = "parity"
    macro_frames: int = 1

    def __post_init__(self) -> None:
        if not self.protocol:
            raise ValueError("protocol name must not be empty")
        if self.n_voice < 0 or self.n_data < 0:
            raise ValueError("population sizes must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.mobile_speed_kmh is not None and self.mobile_speed_kmh < 0:
            raise ValueError("mobile_speed_kmh must be non-negative")
        if self.engine_backend != "columnar":
            raise ValueError(
                f"engine_backend must be 'columnar', got {self.engine_backend!r}"
            )
        if self.rng_mode not in ("parity", "fast"):
            raise ValueError(
                f"rng_mode must be 'parity' or 'fast', got {self.rng_mode!r}"
            )
        if self.macro_frames < 1:
            raise ValueError("macro_frames must be at least 1")

    @property
    def n_terminals(self) -> int:
        """Total number of terminals in the cell."""
        return self.n_voice + self.n_data

    def measured_frames(self, params: SimulationParameters) -> int:
        """Number of measured frames implied by ``duration_s``."""
        return max(1, int(round(self.duration_s / params.frame_duration_s)))

    def warmup_frames(self, params: SimulationParameters) -> int:
        """Number of warm-up frames implied by ``warmup_s``."""
        return int(round(self.warmup_s / params.frame_duration_s))

    def with_overrides(self, **overrides) -> "Scenario":
        """Copy of the scenario with some fields replaced."""
        return replace(self, **overrides)

    def label(self) -> str:
        """Compact human-readable identifier used in tables and logs."""
        queue = "queue" if self.use_request_queue else "noqueue"
        return (
            f"{self.protocol}[Nv={self.n_voice},Nd={self.n_data},{queue},seed={self.seed}]"
        )
