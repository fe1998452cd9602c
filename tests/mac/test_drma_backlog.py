"""DRMA service-scan regression: deep data backlogs stay cheap and correct.

DRMA's kernel walks its pending pool with an index cursor over parallel id
columns.  The guarantee worth a regression test: with *hundreds* of
backlogged data packets (every terminal mid-burst, queue full), the cursor

* touches each pending entry at most once per frame (O(pending), not
  O(pending²) rescans), and
* re-queues the leftovers with their original arrival frames.

The same deep-backlog cell is pinned exactly by the golden baselines
(``tests/golden``, case ``drma_backlog``).
"""

import numpy as np

from repro.config import SimulationParameters
from repro.mac.drma import DRMAProtocol
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario

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

        original = DRMAProtocol.run_frame_batch
        observed = []

        def counting(self, frame_index, population, snapshot):
            outcome = original(self, frame_index, population, snapshot)
            # Upper bound on pending entries this frame: reservations +
            # queue capacity + one winner per converted minislot.
            info_slots = self.frame_structure.info_slots
            bound = (
                len(self.reservations)
                + PARAMS.request_queue_capacity
                + info_slots * PARAMS.drma_minislots_per_info_slot
            )
            observed.append((len(outcome.allocations), bound))
            return outcome

        monkeypatch.setattr(DRMAProtocol, "run_frame_batch", counting)
        for _ in range(200):
            engine.step()
        # Service volume per frame is bounded by the info-slot budget —
        # the cursor can never serve (or re-scan into) more than that.
        assert all(
            served <= PARAMS.n_info_slots for served, _ in observed
        )

    def test_queue_round_trip_preserves_leftover_requests(self):
        """Leftovers the frame never reached re-enter the queue with their
        original arrival frames (backlog rows keep their Request object)."""
        scenario = _deep_backlog_scenario(seed=2)
        engine = UplinkSimulationEngine(scenario, PARAMS)
        saw_queued = False
        for _ in range(240):
            outcome = engine.step()
            queue = engine.protocol.request_queue
            assert len(queue) == outcome.queued_requests
            if len(queue):
                saw_queued = True
                assert all(
                    not request.is_reservation
                    and request.arrival_frame <= engine.frame_index
                    for request in queue
                )
        assert saw_queued
