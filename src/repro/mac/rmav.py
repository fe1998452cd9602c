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

from repro.mac.base import MACProtocol
from repro.mac.frames import FrameStructure

__all__ = ["RMAVProtocol"]


class RMAVProtocol(MACProtocol):
    """Variable-frame reservation protocol with a single competitive slot."""

    name = "rmav"
    display_name = "RMAV"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = False

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

    def serve_fcfs(
        self, holders, backlog_ids, winner_ids, occupancy, snapshot, n_voice,
        data_cap=None,
    ):
        """FCFS service with every data grant capped at ``P_max`` slots.

        The frame's single competitive slot (``request_minislots=1``) yields
        at most one winner per frame, however many users are waiting — the
        bottleneck that makes RMAV thrash as soon as a moderate number of
        users contend simultaneously (the instability the paper's Fig. 11
        shows).
        """
        return super().serve_fcfs(
            holders, backlog_ids, winner_ids, occupancy, snapshot, n_voice,
            self.params.rmav_pmax,
        )
