"""RMAV: reservation-based multiple access with a variable frame (Section 3.2).

In RMAV each frame contains exactly *one* request opportunity — the
"competitive slot" at the end of the frame — and every other slot is an
information slot already assigned to some user.  The frame length therefore
varies with the number of assigned slots; a data user may be granted up to
``P_max`` (10) slots per successful request.  The design gives very short
delays at light load (almost the whole frame carries information) and high
throughput at heavy load, but providing a single contention opportunity per
frame makes it collapse under even a moderate number of simultaneous
contenders — the instability the paper's Fig. 11 shows from roughly ten
voice users onward.

Modelling notes
---------------
Our engine advances in fixed 2.5 ms frames, so we map RMAV's variable frame
onto it by reclaiming the request subframe bandwidth as information capacity
(all but one minislot, converted at the minislot/info-slot exchange rate) and
offering exactly one contention opportunity per frame.  RMAV inherently has
no base-station request queue (there is at most one winner per frame), which
the paper also notes.
"""

from __future__ import annotations

import math

from repro.channel.manager import ChannelSnapshot
from repro.mac.base import MACProtocol, traced_batch
from repro.mac.contention import run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import Acknowledgement, FrameOutcome

__all__ = ["RMAVProtocol"]


class RMAVProtocol(MACProtocol):
    """Variable-frame reservation protocol with a single competitive slot."""

    name = "rmav"
    display_name = "RMAV"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = False
    #: A frame draws randomness only through the single competitive slot's
    #: permission draws, so the macro engine can execute whole blocks inline
    #: — including RMAV's long winnerless stretches under overload, which
    #: resolve as one pre-drawn contention matrix per block.
    supports_macro_lookahead = True


    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        # The bandwidth reclaimed from the request subframe is assumed to be
        # consumed by RMAV's variable-frame signalling (per-frame length
        # announcements), leaving the same information-slot budget as the
        # other protocols — the comparison then isolates the access policy.
        return FrameStructure(
            name=self.display_name,
            request_minislots=1,
            info_slots=self.params.n_info_slots,
            dynamic=True,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    def macro_minislots(self) -> int:
        """One competitive slot per frame (see :meth:`run_frame_batch`)."""
        return 1

    def macro_data_slot_cap(self) -> int:
        """Data winners are capped at ``P_max`` slots per request."""
        return self.params.rmav_pmax

    @traced_batch
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Reservation holders, then the single competitive slot.

        At most one winner per frame, however many users are waiting — the
        bottleneck that makes RMAV thrash as soon as a moderate number of
        users contend simultaneously (the instability the paper's Fig. 11
        shows).
        """
        self.reservations.release_ended_population(population)
        outcome = FrameOutcome(frame_index)
        grants = outcome.use_grant_columns()
        slots_left = self.frame_structure.info_slots

        served = self.allocate_reserved_voice_batch(
            population, snapshot, slots_left, grants
        )
        slots_left -= served.shape[0]

        ids, probabilities = self.contention_candidate_ids(population)
        contention = run_contention_ids(
            ids, probabilities, 1, self.contention_rng, fast=self.rng_fast
        )
        outcome.contention_attempts = contention.attempts
        outcome.contention_collisions = contention.collisions
        outcome.idle_request_slots = contention.idle_slots

        if contention.winner_ids:
            winner = contention.winner_ids[0]
            outcome.acknowledgements.append(
                Acknowledgement(winner, 0, frame_index)
            )
            occupancy = int(population.occupancy[winner])
            if slots_left >= 1 and occupancy > 0:
                per_slot, throughput = self.slot_capacity(
                    float(snapshot.amplitude[winner])
                )
                if population.is_voice[winner]:
                    grants.append(winner, 1, per_slot, throughput)
                    slots_left -= 1
                    self.reservations.grant(winner, frame_index)
                else:
                    needed = math.ceil(occupancy / max(1, per_slot))
                    n_slots = min(
                        self.params.rmav_pmax,
                        max(1, min(slots_left, needed)),
                    )
                    grants.append(
                        winner, n_slots, per_slot * n_slots, throughput
                    )
                    slots_left -= n_slots

        outcome.queued_requests = 0
        return outcome
