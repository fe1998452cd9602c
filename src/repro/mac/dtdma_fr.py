"""D-TDMA/FR: dynamic TDMA with a fixed-rate physical layer (Section 3.4).

The classic improved-PRMA design: the frame is statically split into ``N_r``
request minislots and ``N_i`` information slots.  Requests are gathered by
slotted contention and served first-come-first-served, voice before data;
whenever a request succeeds an information slot (if any remains) is assigned
immediately.  A voice user that obtains a slot keeps one slot per 20 ms
voice-packet period until its talkspurt ends; data users must contend again
for every burst instalment.  The physical layer delivers a constant one
packet per slot irrespective of the channel state.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, traced_batch
from repro.mac.contention import run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import Acknowledgement, FrameOutcome, RequestColumns

__all__ = ["DTDMAFRProtocol"]


class DTDMAFRProtocol(MACProtocol):
    """Dynamic TDMA, fixed rate: static frame, FCFS assignment."""

    name = "dtdma_fr"
    display_name = "D-TDMA/FR"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True
    #: The whole request phase is slotted-ALOHA permission draws and the
    #: allocation phase draws nothing, so the macro engine executes frames
    #: inline whenever the base-station queue is empty.
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

        Queued requests are served before this frame's, voice before data
        within each group; requests left without a slot are queued (with
        the request queue) or dropped.
        """
        self.reservations.release_ended_population(population)
        self.prune_queue_batch(frame_index, population)
        outcome = FrameOutcome(frame_index)
        grants = outcome.use_grant_columns()
        slots_left = self.frame_structure.info_slots

        # Phase 0: reservation holders transmit without contention.
        served = self.allocate_reserved_voice_batch(
            population, snapshot, slots_left, grants
        )
        slots_left -= served.shape[0]

        # Phase 1: request contention over the static request subframe.
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
        acknowledgements = outcome.acknowledgements
        for slot, winner in enumerate(contention.winner_ids):
            acknowledgements.append(Acknowledgement(winner, slot, frame_index))
        winner_ids = np.asarray(contention.winner_ids, dtype=np.int64)

        # Phase 2: FCFS service — queued requests first, then this frame's,
        # voice before data within each group.
        backlog = (
            self.request_queue.pop_all() if self.request_queue is not None else []
        )
        if not backlog and not winner_ids.shape[0]:
            outcome.queued_requests = self.queued_count()
            return outcome
        new_columns = self.request_columns_for(population, winner_ids, frame_index)
        if backlog:
            pending = RequestColumns.concatenate(
                [RequestColumns.from_requests(backlog), new_columns]
            )
        else:
            pending = new_columns
        voice_rows = np.nonzero(pending.is_voice)[0]
        data_rows = np.nonzero(~pending.is_voice)[0]

        unserved_rows: List[int] = []
        slots_left = self._serve_voice_rows_batch(
            pending, voice_rows, population, snapshot, frame_index,
            slots_left, grants, unserved_rows,
        )
        slots_left = self._serve_data_rows_batch(
            pending, data_rows, population, snapshot, slots_left, grants,
            unserved_rows,
        )

        self.queue_unserved_rows(pending, unserved_rows)
        outcome.queued_requests = self.queued_count()
        return outcome

    def macro_minislots(self) -> int:
        """The static request subframe, resolvable from a pre-drawn pool."""
        return self.frame_structure.request_minislots
