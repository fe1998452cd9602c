"""The paper's primary contribution: the CHARISMA protocol.

``repro.core`` contains the pieces that make CHARISMA different from the
baseline protocols in :mod:`repro.mac`:

* :class:`~repro.core.priority.PriorityCalculator` — the CSI / urgency /
  service-class priority metric of equation (2);
* :class:`~repro.core.allocator.CSIRankedAllocator` — the gather-then-assign
  slot allocation that defers users in deep fades while their deadlines
  allow;
* :class:`~repro.core.csi_polling.CSIPoller` — the pilot-symbol polling that
  keeps backlogged requests' CSI fresh;
* :class:`~repro.core.charisma.CharismaProtocol` — the protocol itself,
  tying those pieces to the shared MAC substrate (contention, reservations,
  request queue).
"""

from repro.core.allocator import CSIRankedAllocator
from repro.core.charisma import CharismaProtocol
from repro.core.csi_polling import CSIPoller
from repro.core.priority import PriorityCalculator

__all__ = [
    "CSIRankedAllocator",
    "CSIPoller",
    "CharismaProtocol",
    "PriorityCalculator",
]
