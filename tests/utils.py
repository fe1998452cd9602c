"""Shared helpers for the test-suite: forced-state populations, snapshots,
protocols, and engine runs in blocks of a chosen size."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.channel.manager import EagerSnapshot
from repro.config import SimulationParameters
from repro.mac.contention import IndexContentionResult
from repro.mac.registry import create_protocol
from repro.mac.requests import GrantColumns
from repro.sim.macro import BlockDraws
from repro.sim.results import SimulationResult
from repro.traffic.population import TerminalMigrationState, TerminalPopulation

PARAMS = SimulationParameters()

#: Countdown of a forced terminal's next source event: beyond any test.
_NO_EVENT = 1 << 30


def make_snapshot(amplitudes: Sequence[float], frame_index: int = 0,
                  mean_snr_db: float = PARAMS.mean_snr_db) -> EagerSnapshot:
    """Build a channel snapshot with explicitly chosen per-user amplitudes."""
    amplitude = np.asarray(list(amplitudes), dtype=float)
    with np.errstate(divide="ignore"):
        snr_db = mean_snr_db + 20.0 * np.log10(amplitude)
    return EagerSnapshot(amplitude=amplitude, snr_db=snr_db, frame_index=frame_index)


def make_population(
    voice: Sequence[int] = (),
    data: Sequence[int] = (),
    talking: Optional[Sequence[bool]] = None,
    frame: int = 0,
    params: SimulationParameters = PARAMS,
    seed: int = 0,
) -> TerminalPopulation:
    """A population in a forced state: voice terminals first, then data.

    ``voice`` and ``data`` give each terminal's buffered packets, counted as
    generated.  A data terminal's were all created at ``frame``; a voice
    buffer holds one packet a frame, so a voice terminal's were created at
    consecutive frames from ``frame`` on.  ``talking`` says which voice
    terminals are in a talkspurt (all of them by default).  No source event
    fires for a very long time, so advancing the population adds nothing
    but the talkers' periodic voice packets.
    """
    voice, data = list(voice), list(data)
    talking = [True] * len(voice) if talking is None else list(talking)
    population = TerminalPopulation(
        params, len(voice), len(data), np.random.default_rng(seed)
    )
    for index, (n_packets, in_talkspurt) in enumerate(zip(voice, talking)):
        population.import_terminal_state(index, TerminalMigrationState(
            is_voice=True,
            in_talkspurt=in_talkspurt,
            countdown=_NO_EVENT,
            frames_since_packet=1,
            occupancy=n_packets,
            head_created=frame if n_packets else -1,
            segments=[[frame + k, 1] for k in range(n_packets)],
            voice_generated=n_packets,
        ))
    for index, n_packets in enumerate(data, start=len(voice)):
        population.import_terminal_state(index, TerminalMigrationState(
            is_voice=False,
            in_talkspurt=False,
            countdown=_NO_EVENT,
            frames_since_packet=0,
            occupancy=n_packets,
            head_created=frame if n_packets else -1,
            segments=[[frame, n_packets]] if n_packets else [],
            data_generated=n_packets,
        ))
    return population


def build_protocol(name: str, use_request_queue: bool = False,
                   params: SimulationParameters = PARAMS, seed: int = 0):
    """Construct a protocol (and its modem) for unit tests."""
    return create_protocol(name, params, np.random.default_rng(seed),
                           use_request_queue=use_request_queue)


def population_snapshot(population: TerminalPopulation, amplitude: float = 1.0,
                        frame_index: int = 0) -> EagerSnapshot:
    """A snapshot giving every terminal the same channel amplitude."""
    return make_snapshot([amplitude] * len(population), frame_index=frame_index)


class Frame(NamedTuple):
    """One MAC frame's outcome (see :func:`run_protocol_frame`)."""

    request: IndexContentionResult
    grants: GrantColumns
    #: Requests queued at the base station after the frame.
    queued: int


def run_protocol_frame(protocol, population: TerminalPopulation,
                       snapshot, frame: int = 0,
                       draws: Optional[BlockDraws] = None) -> Frame:
    """One MAC frame through ``protocol.run_frame``, fed as the frame loop
    feeds it: the live reservation holders (ended ones released), the
    contention candidates, the pruned queue's backlog and a one-frame
    block's :class:`~repro.sim.macro.BlockDraws` (``draws``, or fresh ones);
    the newly served voice terminals then take their reservations."""
    queue = protocol.request_queue
    if queue is not None:
        queue.prune(frame, population.occupancy)
    candidate_ids = protocol.contention_candidate_ids(population)
    backlog = queue.pop_all() if queue is not None and len(queue) else None
    holders = protocol.reservations.live_holders(
        population.occupancy, population.in_talkspurt
    )
    if draws is None:
        draws = BlockDraws(protocol)
    request, grants, new_voice = protocol.run_frame(
        frame, population, snapshot, holders, candidate_ids.tolist(),
        backlog, population.occupancy.tolist(), draws,
    )
    draws.close()
    for tid in new_voice:
        protocol.reservations.grant(tid)
    return Frame(request, grants, len(queue) if queue is not None else 0)


def run_single_frame(protocol, population: TerminalPopulation,
                     amplitude: float = 1.0, frame: int = 0) -> Frame:
    """One MAC frame over a uniform channel."""
    snapshot = population_snapshot(population, amplitude, frame_index=frame)
    return run_protocol_frame(protocol, population, snapshot, frame)


def run_in_blocks(engine, block_frames: int) -> SimulationResult:
    """Run ``engine`` as ``engine.run()`` does, in blocks of ``block_frames``.

    The warm-up and the measured frames are stepped in
    ``run_frames(block_frames)`` calls (the last of each clamped to the
    frames left) around ``begin_measurement()``, then the results are
    collected.  A call of at most the engine's ``BLOCK_FRAMES`` frames is
    one block of the frame loop, so this is how a test picks the block
    size.
    """
    if not 1 <= block_frames <= engine.BLOCK_FRAMES:
        raise ValueError(
            f"block_frames must lie in 1..{engine.BLOCK_FRAMES}, "
            f"got {block_frames}"
        )
    scenario, params = engine.scenario, engine.params
    phases = (scenario.warmup_frames(params), scenario.measured_frames(params))
    for phase, frames in enumerate(phases):
        if phase:
            engine.begin_measurement()
        for start in range(0, frames, block_frames):
            engine.run_frames(min(block_frames, frames - start))
    return engine.collect_results()
