"""One beam of a constellation: a self-contained single-cell engine.

A :class:`BeamShard` wraps an :class:`~repro.sim.engine.UplinkSimulationEngine`
built from the constellation's per-beam :class:`~repro.sim.scenario.Scenario`
with beam-specific random streams injected.  Between macro-block barriers a
shard is completely independent of its siblings — no shared mutable state —
which is what lets a worker process step it alone, deterministically.
Cross-beam state only moves through the explicit block-boundary seams
exposed here: busy-load export, interference injection and idle-terminal
state migration.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SimulationParameters
from repro.constellation.scenario import ConstellationScenario
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.results import SimulationResult
from repro.sim.rng import RandomStreams
from repro.traffic.population import TerminalMigrationState, TerminalPopulation

__all__ = ["BeamShard", "beam_spawn_key", "BEAM_KEY_TAG"]

#: Namespace tag prefixed to every non-zero beam's RNG spawn key.  Keys of
#: the form ``(BEAM_KEY_TAG, beam)`` cannot collide with the engine's stream
#: children ``(0..4,)`` or with :func:`repro.sim.rng.child_stream` keys.
BEAM_KEY_TAG = zlib.crc32(b"constellation.beam")


def beam_spawn_key(beam: int) -> Tuple[int, ...]:
    """RNG spawn-key prefix for a beam's :class:`RandomStreams`.

    Beam 0 uses the empty key, so its streams are bit-identical to a plain
    single-cell run under the same master seed — the degenerate-parity
    contract.  Every other beam gets an independent namespaced key.
    """
    if beam < 0:
        raise ValueError("beam must be non-negative")
    return () if beam == 0 else (BEAM_KEY_TAG, beam)


class BeamShard:
    """One beam's engine plus the block-boundary coupling seams; an
    interference penalty set at a barrier applies from the next frame on."""

    def __init__(
        self,
        beam: int,
        scenario: ConstellationScenario,
        params: Optional[SimulationParameters] = None,
    ) -> None:
        self.beam = int(beam)
        self.scenario = scenario
        beam_scenario = scenario.beam_scenario(self.beam)
        streams = RandomStreams(
            scenario.seed, spawn_key=beam_spawn_key(self.beam)
        )
        self.engine = UplinkSimulationEngine(
            beam_scenario, params, streams=streams, beam=self.beam
        )
        self.population: TerminalPopulation = self.engine.population

    # ------------------------------------------------------------ stepping
    def run_frames(self, n_frames: int) -> None:
        """Advance the shard's engine by ``n_frames`` frames."""
        self.engine.run_frames(n_frames)

    def begin_measurement(self) -> None:
        """Start the measured window (warm-up/measured barrier)."""
        self.engine.begin_measurement()

    def result(self) -> SimulationResult:
        """The shard's metrics since the last measurement reset."""
        return self.engine.collect_results()

    # ---------------------------------------------------- coupling seams
    def busy_load(self) -> float:
        """Fraction of this beam's terminals loading the channel now."""
        from repro.constellation.coupling import beam_busy_load

        population = self.population
        return beam_busy_load(population.in_talkspurt, population.occupancy)

    def set_interference_db(self, penalty_db: float) -> None:
        """Fold the co-channel interference penalty into the beam's SNR."""
        self.engine.channels.set_interference_db(penalty_db)

    def eligible_handover_ids(self) -> List[int]:
        """Beam-local ids of voice terminals that can migrate right now.

        Eligible means idle in every MAC-visible sense: a voice terminal
        outside a talkspurt with an empty queue, holding no reservation and
        waiting in no request queue.  Swapping two such terminals between
        beams is invisible to both MACs, which is what keeps handover
        packet- and stat-conserving.
        """
        population = self.population
        protocol = self.engine.protocol
        idle = (
            population.is_voice
            & ~population.in_talkspurt
            & (population.occupancy == 0)
        )
        candidates = np.flatnonzero(idle)
        if candidates.size == 0:
            return []
        busy = set(protocol.reservations.holders())
        queue = getattr(protocol, "request_queue", None)
        if queue is not None:
            busy.update(int(t) for t in queue.terminal_id_array())
        return [int(i) for i in candidates if int(i) not in busy]

    def export_terminal(self, local_id: int) -> TerminalMigrationState:
        """Snapshot one terminal's full migratable state."""
        return self.population.export_terminal_state(local_id)

    def import_terminal(self, local_id: int, state: TerminalMigrationState) -> None:
        """Install migrated terminal state and invalidate macro mirrors."""
        self.population.import_terminal_state(local_id, state)
        self.engine.notify_external_mutation()
