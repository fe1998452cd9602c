"""RAMA: Resource Auction Multiple Access (Section 3.1).

RAMA replaces random contention by a *collision-avoidance auction*.  The
frame contains ``N_a`` auction slots; in each one every contending user
transmits, digit by digit, a randomly generated ID (voice users' IDs are
constructed to exceed data users' so that voice wins ties of service class),
and the base station keeps only the largest digit at every round.  At the end
of the auction exactly one user survives and is granted an information slot
in the current frame — unless two contenders happened to draw the *same* ID,
an event whose probability shrinks geometrically with the ID length.

Modelling notes
---------------
The digit-by-digit elimination always selects a uniformly random contender
among the highest-priority class (every ID permutation is equally likely), so
we draw the winner directly and separately account for the residual
whole-ID-tie probability, preserving RAMA's key properties: progress is
guaranteed at any load (no thrashing), at most ``N_a`` new grants per frame,
and a larger bandwidth/hardware overhead per auction slot than a plain
request minislot (``N_a < N_r``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, traced_batch
from repro.mac.contention import IndexContentionResult
from repro.mac.frames import FrameStructure
from repro.mac.requests import Acknowledgement, FrameOutcome, RequestColumns

__all__ = ["RAMAProtocol"]


class RAMAProtocol(MACProtocol):
    """Auction-based collision-avoidance uplink access."""

    name = "rama"
    display_name = "RAMA"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True
    #: Every empty-queue frame runs inline in the macro engine: its request
    #: phase is :meth:`run_auction`, whose tie/winner draw pairs come
    #: straight from ``rng`` in the per-frame call order (they are
    #: inherently unpoolable), and a quiet frame draws nothing.
    supports_macro_lookahead = True
    macro_contention_style = "auction"

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        return FrameStructure(
            name=self.display_name,
            request_minislots=self.params.rama_auction_slots,
            info_slots=self.params.n_info_slots,
            dynamic=False,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    def whole_id_tie_probability(self, n_contenders: int) -> float:
        """Probability that the auction winner's full ID is duplicated.

        With ``d`` digits of radix ``b`` there are ``b**d`` possible IDs; the
        chance that at least one of the other ``n-1`` contenders drew exactly
        the winner's ID is ``1 - (1 - b**-d)**(n-1)``.
        """
        if n_contenders <= 1:
            return 0.0
        p_same = float(self.params.rama_digit_base) ** (-self.params.rama_id_digits)
        return 1.0 - (1.0 - p_same) ** (n_contenders - 1)

    def run_auction(
        self,
        candidate_ids: List[int],
        n_voice: int,
        winner_slots: Optional[List[int]] = None,
    ) -> IndexContentionResult:
        """The frame's ``N_a`` auction slots over the given contenders.

        Every contender bids in every slot until it wins; voice bids (ids
        below ``n_voice``, the population's voice block) beat data bids.
        A contested slot makes two scalar draws from ``rng``, the whole-ID
        tie check and then the uniform winner pick, in slot order.  The
        auction is sequential (each slot's pool depends on the earlier
        winners) and makes at most ``N_a`` draw pairs per frame, so there
        is nothing worth batching even in fast mode.  The caller's list is
        not modified.  When ``winner_slots`` is given, the auction slot of
        each winner is appended to it.
        """
        n_slots = self.frame_structure.request_minislots
        if not candidate_ids:
            return IndexContentionResult(idle_slots=n_slots)
        rng = self.rng
        remaining = list(candidate_ids)
        result = IndexContentionResult()
        for auction_slot in range(n_slots):
            n_remaining = len(remaining)
            if n_remaining == 0:
                result.idle_slots += 1
                continue
            result.attempts += n_remaining
            pool = [tid for tid in remaining if tid < n_voice] or remaining
            if rng.random() < self.whole_id_tie_probability(len(pool)):
                result.collisions += 1
                continue
            winner = pool[int(rng.integers(len(pool)))]
            remaining.remove(winner)
            result.winner_ids.append(winner)
            if winner_slots is not None:
                winner_slots.append(auction_slot)
        return result

    @traced_batch
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Auction phase, then FCFS service (voice before data).

        Every contender participates in every auction slot (no
        permission-probability gating — collisions are avoided by the
        auction itself); see :meth:`run_auction`.
        """
        self.reservations.release_ended_population(population)
        self.prune_queue_batch(frame_index, population)
        outcome = FrameOutcome(frame_index)
        grants = outcome.use_grant_columns()
        slots_left = self.frame_structure.info_slots

        served = self.allocate_reserved_voice_batch(
            population, snapshot, slots_left, grants
        )
        slots_left -= served.shape[0]

        candidate_array, _ = self.contention_candidate_ids(population)
        winner_slots: List[int] = []
        auction = self.run_auction(
            candidate_array.tolist(), population.n_voice, winner_slots
        )
        outcome.contention_attempts = auction.attempts
        outcome.contention_collisions = auction.collisions
        outcome.idle_request_slots = auction.idle_slots
        winner_ids = auction.winner_ids
        outcome.acknowledgements.extend(
            Acknowledgement(winner, auction_slot, frame_index)
            for winner, auction_slot in zip(winner_ids, winner_slots)
        )

        backlog = (
            self.request_queue.pop_all() if self.request_queue is not None else []
        )
        if not backlog:
            if winner_ids:
                self._serve_winners_scalar(
                    winner_ids, population, snapshot, frame_index,
                    slots_left, grants,
                )
            outcome.queued_requests = self.queued_count()
            return outcome
        new_columns = self.request_columns_for(
            population, np.asarray(winner_ids, dtype=np.int64), frame_index
        )
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

    def _serve_winners_scalar(
        self,
        winner_ids: List[int],
        population,
        snapshot: ChannelSnapshot,
        frame_index: int,
        slots_left: int,
        grants,
    ) -> None:
        """FCFS service of a backlog-free frame's auction winners.

        The auction yields at most ``N_a`` winners per frame, so columnising
        them (nine array allocations, masked row scans) costs more than it
        saves.  Plain scalar service over the handful of winners is
        decision-for-decision (and
        queue-entry-for-queue-entry) identical to the columnar
        ``_serve_voice_rows_batch`` / ``_serve_data_rows_batch`` pair on the
        same single-frame pool.
        """
        occupancy = population.occupancy
        is_voice = population.is_voice
        unserved: List[int] = []
        append = grants.append
        for want_voice in (True, False):
            for tid in winner_ids:
                if bool(is_voice[tid]) is not want_voice:
                    continue
                occ = int(occupancy[tid])
                if occ == 0:
                    continue
                if slots_left < 1:
                    unserved.append(tid)
                    continue
                per_slot, throughput = self.grant_capacity(tid, snapshot)
                if want_voice:
                    append(tid, 1, per_slot, throughput)
                    slots_left -= 1
                    self.reservations.grant(tid, frame_index)
                else:
                    needed = -(-occ // max(1, per_slot))
                    n_slots = max(1, min(slots_left, needed))
                    append(tid, n_slots, per_slot * n_slots, throughput)
                    slots_left -= n_slots
        if unserved and self.request_queue is not None:
            self.request_queue.extend(
                self.make_request_for_id(population, tid, frame_index)
                for tid in unserved
            )
