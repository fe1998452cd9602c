"""Shared helpers for the test-suite: forced-state populations, snapshots, protocols."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.mac.registry import create_protocol
from repro.traffic.population import TerminalMigrationState, TerminalPopulation

PARAMS = SimulationParameters()

#: Countdown of a forced terminal's next source event: beyond any test.
_NO_EVENT = 1 << 30


def make_snapshot(amplitudes: Sequence[float], frame_index: int = 0,
                  mean_snr_db: float = PARAMS.mean_snr_db) -> ChannelSnapshot:
    """Build a channel snapshot with explicitly chosen per-user amplitudes."""
    amplitude = np.asarray(list(amplitudes), dtype=float)
    with np.errstate(divide="ignore"):
        snr_db = mean_snr_db + 20.0 * np.log10(amplitude)
    return ChannelSnapshot(amplitude=amplitude, snr_db=snr_db, frame_index=frame_index)


def make_population(
    voice: Sequence[int] = (),
    data: Sequence[int] = (),
    talking: Optional[Sequence[bool]] = None,
    frame: int = 0,
    params: SimulationParameters = PARAMS,
    seed: int = 0,
) -> TerminalPopulation:
    """A population in a forced state: voice terminals first, then data.

    ``voice`` and ``data`` give each terminal's buffered packets, all created
    at ``frame`` and counted as generated.  ``talking`` says which voice
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
            segments=[[frame, 1] for _ in range(n_packets)],
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
                        frame_index: int = 0) -> ChannelSnapshot:
    """A snapshot giving every terminal the same channel amplitude."""
    return make_snapshot([amplitude] * len(population), frame_index=frame_index)


def run_single_frame(protocol, population: TerminalPopulation,
                     amplitude: float = 1.0, frame: int = 0):
    """One MAC frame over a uniform channel."""
    snapshot = population_snapshot(population, amplitude, frame_index=frame)
    return protocol.run_frame_batch(frame, population, snapshot)
