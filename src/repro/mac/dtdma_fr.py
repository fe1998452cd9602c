"""D-TDMA/FR: dynamic TDMA with a fixed-rate physical layer (Section 3.4).

The classic improved-PRMA design: the frame is statically split into ``N_r``
request minislots and ``N_i`` information slots.  Requests are gathered by
slotted contention and served first-come-first-served, voice before data
(:meth:`~repro.mac.base.MACProtocol.serve_fcfs` states the order); whenever
a request succeeds an information slot (if any remains) is assigned
immediately.  A voice user that obtains a slot keeps one slot per 20 ms
voice-packet period until its talkspurt ends; data users must contend again
for every burst instalment.  The physical layer delivers a constant one
packet per slot irrespective of the channel state.
"""

from __future__ import annotations

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, traced_batch
from repro.mac.contention import run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import FrameOutcome

__all__ = ["DTDMAFRProtocol"]


class DTDMAFRProtocol(MACProtocol):
    """Dynamic TDMA, fixed rate: static frame, FCFS assignment."""

    name = "dtdma_fr"
    display_name = "D-TDMA/FR"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True
    #: The whole request phase is slotted-ALOHA permission draws and the
    #: allocation phase draws nothing, so the macro engine executes every
    #: frame inline, request backlog or not.
    supports_macro_lookahead = True

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        return FrameStructure(
            name=self.display_name,
            request_minislots=self.params.n_request_slots,
            info_slots=self.params.n_info_slots,
            dynamic=False,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    @traced_batch
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Reservations, slotted contention, then FCFS service.

        See :meth:`~repro.mac.base.MACProtocol.serve_fcfs` for the service
        order; requests left without a slot are queued (with the request
        queue) or dropped.
        """
        self.reservations.release_ended_population(population)
        queue = self.request_queue
        if queue is not None:
            queue.prune(frame_index, population.occupancy)
        outcome = FrameOutcome(frame_index)

        # Request contention over the static request subframe.
        ids, probabilities = self.contention_candidate_ids(population)
        contention = run_contention_ids(
            ids,
            probabilities,
            self.frame_structure.request_minislots,
            self.contention_rng,
            fast=self.rng_fast,
        )
        outcome.contention_attempts = contention.attempts
        outcome.contention_collisions = contention.collisions
        outcome.idle_request_slots = contention.idle_slots
        outcome.winner_ids = winner_ids = contention.winner_ids

        backlog = queue.pop_all() if queue is not None and len(queue) else None
        outcome.grants, new_voice, unserved = self.serve_fcfs(
            self.reservations.reserved_ids(population).tolist(),
            backlog.terminal_ids if backlog is not None else [],
            winner_ids,
            population.occupancy,
            snapshot,
            population.n_voice,
        )
        self.reservations.grant_many(new_voice, frame_index)
        self.requeue(frame_index, population, backlog, winner_ids, unserved)
        outcome.queued_requests = self.queued_count()
        return outcome

    def macro_minislots(self) -> int:
        """The static request subframe (the macro runner resolves it with
        the same ``run_contention_ids`` call as :meth:`run_frame_batch`)."""
        return self.frame_structure.request_minislots
