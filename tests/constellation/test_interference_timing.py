"""Interference applies from the frame after each barrier.

A coupled constellation re-evaluates every beam's co-channel penalty at
each block barrier, ``macro_frames`` frames apart, and a beam must not run
past a barrier on the channel of the one before.  In parity RNG mode the
channel is evaluated eagerly, so a snapshot carries the penalty in force
when it was built; a snapshot built ahead of the frame loop would carry an
earlier barrier's penalty into frames stepped after a later one.  The
40-frame warm-up is no multiple of the periods 12 and 16 and shorter than
100, so the warm-up/measured boundary cuts a block short in every case.
"""

import pytest

from repro.channel.manager import ChannelManager
from repro.constellation import ConstellationRunner, ConstellationScenario
from repro.sim.macro import MacroRunner


@pytest.mark.parametrize("period", [12, 16, 100])
def test_every_beam_frame_steps_under_the_penalty_in_force(
    monkeypatch, period
):
    # Keyed by (beam, snapshot frame index): the penalty a snapshot was
    # built under, and the penalty in force when its frame stepped.
    built = {}
    in_force = {}
    advance_block = ChannelManager.advance_block
    run_block = MacroRunner.run_block

    def recording_advance_block(self, n_frames):
        snapshots = advance_block(self, n_frames)
        for snapshot in snapshots:
            built[self.beam, snapshot.frame_index] = self.interference_db
        return snapshots

    def recording_run_block(self, n_frames, engine):
        channels = engine.channels
        start = engine.frame_index
        for frame in range(start + 1, start + n_frames + 1):
            in_force[channels.beam, frame] = channels.interference_db
        return run_block(self, n_frames, engine)

    monkeypatch.setattr(ChannelManager, "advance_block", recording_advance_block)
    monkeypatch.setattr(MacroRunner, "run_block", recording_run_block)
    scenario = ConstellationScenario(
        protocol="rama", n_beams=4, n_voice=12, n_data=3,
        duration_s=0.4, warmup_s=0.1, seed=3, macro_frames=period,
        handover_rate=0.05, coupling_db=3.0, reuse_factor=2,
    )
    ConstellationRunner(scenario, n_workers=1).run()

    assert len(in_force) == 4 * (40 + 160)
    assert len(set(in_force.values())) > 2  # the penalty really moves
    stale = [key for key, penalty in in_force.items() if built[key] != penalty]
    assert not stale, (
        f"{len(stale)} of {len(in_force)} beam-frames stepped on a snapshot "
        f"built under an earlier barrier's penalty"
    )
