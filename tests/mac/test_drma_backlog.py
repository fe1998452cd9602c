"""DRMA service-scan regression: deep data backlogs stay cheap and correct.

DRMA's frame walks its pending pool with an index cursor over parallel id
columns.  The guarantee worth a regression test: with *hundreds* of
backlogged data packets (every terminal mid-burst, queue full), the cursor

* touches each pending entry at most once per frame (O(pending), not
  O(pending²) rescans), and
* re-queues the leftovers with their original arrival frames.

The same deep-backlog cell is pinned exactly by the golden baselines
(``tests/golden``, case ``drma_backlog``).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import SimulationParameters
from repro.mac.drma import DRMAProtocol
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from tests.utils import run_in_blocks

PARAMS = SimulationParameters()


def _deep_backlog_scenario(seed=13):
    # Data-dominated cell: bursts average 100 packets against 8 information
    # slots a frame, so buffers (and the base-station queue) stay deep.
    return Scenario(
        protocol="drma", n_voice=4, n_data=25, use_request_queue=True,
        duration_s=0.6, warmup_s=0.2, seed=seed,
    )


class TestDeepDataBacklog:
    def test_scenario_builds_deep_backlogs(self):
        engine = UplinkSimulationEngine(_deep_backlog_scenario(), PARAMS)
        deepest = 0
        for _ in range(280):
            engine.step()
            deepest = max(deepest, int(engine.population.occupancy.max()))
        # The regression scenario must actually exercise depth: at least one
        # buffer held a whole burst's worth of packets.
        assert deepest > 50, deepest

    def test_cursor_visits_each_pending_entry_at_most_once(self, monkeypatch):
        """O(pending) scan: the per-frame serviceability checks are bounded
        by (entries ever pending) — no per-slot rescan of the whole pool."""
        scenario = _deep_backlog_scenario(seed=5)
        engine = UplinkSimulationEngine(scenario, PARAMS)
        protocol = engine.protocol
        assert isinstance(protocol, DRMAProtocol)

        original = DRMAProtocol.run_frame
        observed = []

        def counting(self, *args):
            request, grants, new_voice = original(self, *args)
            # Upper bound on pending entries this frame: reservations +
            # queue capacity + one winner per converted minislot.
            info_slots = self.frame_structure.info_slots
            bound = (
                len(self.reservations)
                + PARAMS.request_queue_capacity
                + info_slots * PARAMS.drma_minislots_per_info_slot
            )
            observed.append((len(grants), bound))
            return request, grants, new_voice

        monkeypatch.setattr(DRMAProtocol, "run_frame", counting)
        for _ in range(200):
            engine.step()
        # Service volume per frame is bounded by the info-slot budget —
        # the cursor can never serve (or re-scan into) more than that.
        assert len(observed) == 200
        assert all(
            served <= PARAMS.n_info_slots for served, _ in observed
        )

    def test_queue_round_trip_preserves_leftover_requests(self):
        """Leftovers the frame never reached re-enter the queue with their
        original arrival frames (backlog rows keep their queue columns)."""
        scenario = _deep_backlog_scenario(seed=2)
        engine = UplinkSimulationEngine(scenario, PARAMS)

        def queued_total():
            stats = engine.collector.mac_stats()
            return round(stats.mean_queue_length * stats.n_frames)

        saw_queued = False
        for _ in range(240):
            before = queued_total()
            engine.step()
            queue = engine.protocol.request_queue
            # The frame's record holds the queue length after the frame.
            assert len(queue) == queued_total() - before
            if len(queue):
                saw_queued = True
                rows = queue.rows
                assert all(
                    arrival <= engine.frame_index
                    for arrival in rows.arrival_frames
                )
                # Holders' rows never enter the queue.
                assert not set(rows.terminal_ids) & set(
                    engine.protocol.reservations.holders()
                )
        assert saw_queued

    @pytest.mark.parametrize("rng_mode", ("parity", "fast"))
    def test_macro_blocks_serve_the_backlog_inline(self, rng_mode):
        """Blocks of 16 frames serve the deep backlog and match one-frame
        blocks — including bursts that reach terminals while their
        requests wait in the queue (they must not contend meanwhile)."""
        scenario = dataclasses.replace(_deep_backlog_scenario(), rng_mode=rng_mode)
        reference = run_in_blocks(UplinkSimulationEngine(scenario, PARAMS), 1)
        macro = run_in_blocks(UplinkSimulationEngine(scenario, PARAMS), 16)
        assert macro.summary() == reference.summary()
