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

from repro.lint.contracts import kernel
from repro.mac.base import MACProtocol
from repro.mac.contention import IndexContentionResult
from repro.mac.frames import FrameStructure

__all__ = ["RAMAProtocol"]


class RAMAProtocol(MACProtocol):
    """Auction-based collision-avoidance uplink access."""

    name = "rama"
    display_name = "RAMA"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True

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

    def request_phase(
        self, candidate_ids: List[int], n_voice: int
    ) -> IndexContentionResult:
        """The auction replaces slotted contention: every contender bids in
        every auction slot, without permission-probability gating (see
        :meth:`run_auction`)."""
        return self.run_auction(candidate_ids, n_voice)

    @kernel(batch=False)
    def run_auction(
        self, candidate_ids: List[int], n_voice: int
    ) -> IndexContentionResult:
        """The frame's ``N_a`` auction slots over the given contenders.

        Every contender bids in every slot until it wins; voice bids (ids
        below ``n_voice``, the population's voice block) beat data bids.
        A contested slot makes two scalar draws from ``rng``, the whole-ID
        tie check and then the uniform winner pick, in slot order.  The
        auction is sequential (each slot's pool depends on the earlier
        winners) and makes at most ``N_a`` draw pairs per frame, so there
        is nothing worth batching even in fast mode.  The caller's list is
        not modified.
        """
        n_slots = self.frame_structure.request_minislots
        if not candidate_ids:
            return IndexContentionResult(idle_slots=n_slots)
        rng = self.rng
        remaining = list(candidate_ids)
        result = IndexContentionResult()
        for _ in range(n_slots):
            n_remaining = len(remaining)
            if n_remaining == 0:
                result.idle_slots += 1
                continue
            result.attempts += n_remaining
            pool = [tid for tid in remaining if tid < n_voice] or remaining
            # A contested slot draws the tie check, and the winner pick
            # only when there is no tie: the count follows the data, but
            # every frame path makes this same call on this stream.
            # lint: allow[KRN001]
            if rng.random() < self.whole_id_tie_probability(len(pool)):
                result.collisions += 1
                continue
            winner = pool[int(rng.integers(len(pool)))]
            remaining.remove(winner)
            result.winner_ids.append(winner)
        return result
