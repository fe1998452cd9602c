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

from typing import List

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, traced_batch
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
    #: Quiet frames (no contenders, empty queue) draw nothing — the auction
    #: never runs — so the macro engine executes them inline.  Contested
    #: frames resolve through the runner's inline auction: the sequential
    #: tie/winner draw pairs are made directly against ``rng`` in the exact
    #: per-frame call order (they are inherently unpoolable), so contested
    #: frames stay inside the fused block too.
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
        auction itself).  The auction's two scalar draws per contested slot
        (whole-ID tie, uniform winner) are made in slot order — the auction
        is inherently sequential (each slot's pool depends on the previous
        winners) and makes at most ``N_a`` draw pairs per frame, so there is
        nothing worth batching even in fast mode.
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

        # Auction phase over candidate id lists (no permission gating); the
        # pools are small, so plain-list bookkeeping beats array kernels.
        candidate_array, _ = self.contention_candidate_ids(population)
        remaining = candidate_array.tolist()
        voice_flags = population.is_voice[candidate_array].tolist()
        rng = self.rng
        winner_ids: List[int] = []
        acknowledgements = outcome.acknowledgements
        for auction_slot in range(self.frame_structure.request_minislots):
            n_remaining = len(remaining)
            if n_remaining == 0:
                outcome.idle_request_slots += 1
                continue
            outcome.contention_attempts += n_remaining
            pool = [
                tid for tid, voice in zip(remaining, voice_flags) if voice
            ] or remaining
            if rng.random() < self.whole_id_tie_probability(len(pool)):
                outcome.contention_collisions += 1
                continue
            winner = pool[int(rng.integers(len(pool)))]
            position = remaining.index(winner)
            remaining.pop(position)
            voice_flags.pop(position)
            winner_ids.append(winner)
            acknowledgements.append(
                Acknowledgement(winner, auction_slot, frame_index)
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
        amplitude = snapshot.amplitude
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
                per_slot, throughput = self.slot_capacity(float(amplitude[tid]))
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
