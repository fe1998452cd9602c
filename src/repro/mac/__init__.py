"""MAC substrate and the five baseline uplink access-control protocols.

The subpackage provides the shared machinery every protocol builds on —
slotted contention, voice reservations, the optional base-station request
queue, frame-structure descriptors, the request and grant columns — and the
five state-of-the-art protocols the paper compares CHARISMA against
(Section 3): RAMA, RMAV, DRMA, D-TDMA/FR and D-TDMA/VR.  CHARISMA itself
lives in :mod:`repro.core` but registers through the same
:mod:`repro.mac.registry`.

Every protocol owns one frame method,
:meth:`~repro.mac.base.MACProtocol.run_frame`, which the engine's one frame
loop (:class:`~repro.sim.macro.MacroRunner`) calls once per frame with the
frame's reservation holders, contention candidates and request backlog.  It
runs the request phase (id-array contention via :func:`run_contention_ids`,
or RAMA's auction) and the allocation phase (one list-level function per
protocol), and returns its grants as
:class:`~repro.mac.requests.GrantColumns`.  The golden baselines in
``tests/golden`` pin every protocol's exact results.
"""

from repro.mac.base import MACProtocol
from repro.mac.contention import IndexContentionResult, run_contention_ids
from repro.mac.drma import DRMAProtocol
from repro.mac.dtdma_fr import DTDMAFRProtocol
from repro.mac.dtdma_vr import DTDMAVRProtocol
from repro.mac.frames import FrameStructure
from repro.mac.rama import RAMAProtocol
from repro.mac.registry import (
    available_protocols,
    build_modem,
    create_protocol,
    protocol_class,
)
from repro.mac.request_queue import RequestQueue
from repro.mac.requests import GrantColumns, RequestColumns
from repro.mac.reservation import ReservationTable
from repro.mac.rmav import RMAVProtocol

__all__ = [
    "DRMAProtocol",
    "DTDMAFRProtocol",
    "DTDMAVRProtocol",
    "FrameStructure",
    "GrantColumns",
    "IndexContentionResult",
    "MACProtocol",
    "RAMAProtocol",
    "RMAVProtocol",
    "RequestColumns",
    "RequestQueue",
    "ReservationTable",
    "available_protocols",
    "build_modem",
    "create_protocol",
    "protocol_class",
    "run_contention_ids",
]
