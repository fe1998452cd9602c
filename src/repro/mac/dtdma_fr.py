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

from repro.mac.base import MACProtocol
from repro.mac.frames import FrameStructure

__all__ = ["DTDMAFRProtocol"]


class DTDMAFRProtocol(MACProtocol):
    """Dynamic TDMA, fixed rate: static frame, FCFS assignment."""

    name = "dtdma_fr"
    display_name = "D-TDMA/FR"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        return FrameStructure(
            name=self.display_name,
            request_minislots=self.params.n_request_slots,
            info_slots=self.params.n_info_slots,
            dynamic=False,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )
