"""DRMA: Dynamic Reservation Multiple Access (Section 3.3).

DRMA has no dedicated request subframe at all: the frame consists of ``N_k``
information slots only.  Before each information slot the base station
announces whether the slot is already assigned; an *unassigned* slot is
converted on the fly into ``N_x`` request minislots in which active users
contend.  A successful request is granted an information slot (if one
remains) in the current frame; voice users keep their slot as a reservation,
data users must request again for further packets.

Because users can only contend when idle slots exist, the request load
self-throttles: at saturation there are no idle slots, hence no contention
and no collision cascade — DRMA degrades gracefully at high load, at the
price of announcement overhead and of "distributed queueing" (requests wait
at the users when the frame is full), which is also why adding a
base-station request queue helps it very little (Section 5.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, traced_batch
from repro.mac.contention import run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import Acknowledgement, FrameOutcome, Request

__all__ = ["DRMAProtocol"]


class DRMAProtocol(MACProtocol):
    """Dynamic frame: idle information slots become request minislots."""

    name = "drma"
    display_name = "DRMA"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True
    #: Every empty-queue frame, quiet or contended, runs through the macro
    #: runner's inline slot loop: each converted slot's minislot draws come
    #: from the contention pool (bit-identical per-minislot prefixes with
    #: exact roll-back), and winners re-enter the same frame's pending pool
    #: just like the per-frame kernel's cursor loop.
    supports_macro_lookahead = True
    macro_contention_style = "slot_loop"

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        # DRMA has no dedicated request subframe, but the per-slot assignment
        # announcements on the downlink consume roughly the bandwidth the
        # request subframe would have; the information-slot budget therefore
        # stays the same as the other protocols' and the comparison isolates
        # the access policy (the paper likewise stresses DRMA's announcement
        # overhead as the price of its dynamic structure).
        return FrameStructure(
            name=self.display_name,
            request_minislots=0,
            info_slots=self.params.n_info_slots,
            dynamic=True,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    @traced_batch
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Slot-by-slot service; idle slots become request minislots.

        Service order within the frame: reservation holders, then requests
        queued at the base station (if enabled), then requests that succeed
        in converted slots later in this same frame.  The pending pool lives
        in three parallel Python lists advanced by an integer cursor.  Each
        entry is visited at most once per frame (the cursor never moves
        backwards), so service stays O(pending) even with hundreds of
        backlogged data requests, and entries the frame never reaches remain
        beyond the cursor — they are the leftovers the queue-enabled variant
        stores.
        """
        self.reservations.release_ended_population(population)
        self.prune_queue_batch(frame_index, population)
        outcome = FrameOutcome(frame_index)
        grants = outcome.use_grant_columns()

        # Pending pool: reservation holders first, then the queued backlog.
        reserved = self.reservations.reserved_ids(population)
        pending_ids: List[int] = reserved.tolist()
        pending_is_reservation: List[bool] = [True] * len(pending_ids)
        # Backlog rows keep their Request object so re-queueing a leftover
        # preserves its arrival frame; winner rows synthesise one on demand.
        pending_requests: List[Optional[Request]] = [None] * len(pending_ids)
        if self.request_queue is not None:
            for request in self.request_queue.pop_all():
                pending_ids.append(request.terminal_id)
                pending_is_reservation.append(False)
                pending_requests.append(request)

        candidate_array, probability_array = self.contention_candidate_ids(
            population
        )
        candidate_ids = candidate_array.tolist()
        candidate_probabilities = probability_array.tolist()
        if pending_ids:
            already_served = set(pending_ids)
            kept = [
                (tid, probability)
                for tid, probability in zip(candidate_ids, candidate_probabilities)
                if tid not in already_served
            ]
            candidate_ids = [tid for tid, _ in kept]
            candidate_probabilities = [probability for _, probability in kept]

        # Whole-population scalar state as plain Python lists: the per-slot
        # loop below reads them one entry at a time, where list indexing
        # beats NumPy scalar extraction severalfold.
        occupancy_list = population.occupancy.tolist()
        voice_list = population.is_voice.tolist()
        n = len(population)
        minislots = self.params.drma_minislots_per_info_slot
        acknowledgements = outcome.acknowledgements
        append_grant = grants.append
        cursor = 0
        request_slot_counter = 0

        for _ in range(self.frame_structure.info_slots):
            # Serve the next pending entry whose terminal still has packets
            # (buffer states are frozen during the frame, so a skipped entry
            # can never become serviceable again — the cursor drops it).
            served_id = -1
            while cursor < len(pending_ids):
                tid = pending_ids[cursor]
                is_reservation = pending_is_reservation[cursor]
                cursor += 1
                if 0 <= tid < n and occupancy_list[tid] > 0:
                    served_id = tid
                    break
            if served_id >= 0:
                per_slot, throughput = self.grant_capacity(served_id, snapshot)
                append_grant(served_id, 1, per_slot, throughput)
                if voice_list[served_id] and not is_reservation:
                    self.reservations.grant(served_id, frame_index)
                continue

            # Idle information slot: convert it into N_x request minislots.
            contention = run_contention_ids(
                candidate_ids,
                candidate_probabilities,
                minislots,
                self.contention_rng,
                fast=self.rng_fast,
            )
            outcome.contention_attempts += contention.attempts
            outcome.contention_collisions += contention.collisions
            outcome.idle_request_slots += contention.idle_slots
            if not contention.winner_ids:
                continue
            dropped: List[int] = []
            for winner in contention.winner_ids:
                acknowledgements.append(
                    Acknowledgement(winner, request_slot_counter, frame_index)
                )
                request_slot_counter += 1
                pending_ids.append(winner)
                pending_is_reservation.append(False)
                pending_requests.append(None)
                # A voice winner is about to obtain a reservation and stops
                # contending; a data winner only gets a single slot per
                # request, so if it has more packets than that it keeps
                # contending in later converted slots of the same frame.
                if voice_list[winner] or occupancy_list[winner] <= 1:
                    dropped.append(winner)
            if dropped:
                drop = set(dropped)
                kept = [
                    (tid, probability)
                    for tid, probability in zip(
                        candidate_ids, candidate_probabilities
                    )
                    if tid not in drop
                ]
                candidate_ids = [tid for tid, _ in kept]
                candidate_probabilities = [probability for _, probability in kept]

        # Requests that succeeded too late in the frame to get a slot.
        if self.request_queue is not None:
            leftovers = [
                pending_requests[index]
                if pending_requests[index] is not None
                else self.make_request_for_id(
                    population, pending_ids[index], frame_index
                )
                for index in range(cursor, len(pending_ids))
                if not pending_is_reservation[index]
            ]
            self.queue_unserved(leftovers)
        outcome.queued_requests = self.queued_count()
        return outcome
