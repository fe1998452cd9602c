"""D-TDMA/VR: dynamic TDMA on a variable-throughput adaptive PHY (Section 3.5).

D-TDMA/VR uses exactly the same access-control procedure as D-TDMA/FR — the
static request/information frame split, slotted contention, FCFS assignment,
voice reservations — but runs on the channel-adaptive variable-throughput
physical layer.  Crucially, *there is no interaction between the access
control layer and the physical layer*: the scheduler does not look at CSI
when assigning slots; the only benefits come from whatever mode the PHY
happens to pick at transmission time (more packets per slot in good channels,
added protection in bad ones).  This is the strongest baseline and the
closest design to CHARISMA, which differs precisely by feeding CSI into the
allocation decision.
"""

from __future__ import annotations

from repro.mac.dtdma_fr import DTDMAFRProtocol

__all__ = ["DTDMAVRProtocol"]


class DTDMAVRProtocol(DTDMAFRProtocol):
    """D-TDMA/FR's MAC on top of the adaptive physical layer.

    Inherits D-TDMA/FR's frame unchanged: the shared FCFS service resolves
    per-grant capacities through the protocol's own modem, so the adaptive
    PHY's variable packets-per-slot flows through the same columnar
    capacity lookup
    (:meth:`~repro.mac.base.MACProtocol.grant_capacity_columns`).
    """

    name = "dtdma_vr"
    display_name = "D-TDMA/VR"
    uses_adaptive_phy = True
    uses_csi_scheduling = False
    supports_request_queue = True
