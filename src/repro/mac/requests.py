"""Request, acknowledgement and announcement records exchanged with the base station.

The uplink request packet of the paper (Fig. 9a) carries the mobile device
ID, the request type (voice or data), the packet deadline, the number of
information packets the device wishes to transmit, and pilot symbols from
which the base station estimates the sender's CSI.  The downlink
acknowledgement carries the successful request's ID, and the announcement
carries the slot allocation schedule plus the transmission mode to use.

Nothing here is one object per request or grant: the base-station queue
(:class:`~repro.mac.request_queue.RequestQueue`) keeps its requests as
columns, CHARISMA pools a frame's requests in :class:`RequestColumns`, the
protocols announce their grants as :class:`GrantColumns`, and a frame's
acknowledgements are the winner ids of its request phase
(:class:`~repro.mac.contention.IndexContentionResult`).  These records are
plain data: all decision making lives in the protocols.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "GrantColumns",
    "RequestColumns",
]


class GrantColumns:
    """One frame's slot grants (the downlink announcement) as columns.

    The MAC kernels emit their grants by appending plain Python scalars to
    these four parallel lists; the frame loop transmits them in order.  Every grant has
    ``n_slots >= 1`` and ``packet_capacity >= 1``, and a throughput that is
    ``None`` on the fixed-rate PHY or positive on the adaptive one.
    """

    __slots__ = ("terminal_ids", "n_slots", "packet_capacities", "throughputs")

    def __init__(
        self,
        terminal_ids: Optional[List[int]] = None,
        n_slots: Optional[List[int]] = None,
        packet_capacities: Optional[List[int]] = None,
        throughputs: Optional[List[Optional[float]]] = None,
    ) -> None:
        """Empty columns, or the given aligned lists (taken over, not copied)."""
        self.terminal_ids: List[int] = [] if terminal_ids is None else terminal_ids
        self.n_slots: List[int] = [] if n_slots is None else n_slots
        self.packet_capacities: List[int] = (
            [] if packet_capacities is None else packet_capacities
        )
        #: Announced mode throughput per grant; ``None`` on the fixed PHY.
        self.throughputs: List[Optional[float]] = (
            [] if throughputs is None else throughputs
        )

    def append(
        self,
        terminal_id: int,
        n_slots: int,
        packet_capacity: int,
        throughput: Optional[float] = None,
    ) -> None:
        """Record one grant (scalar fast path of the batch emitters)."""
        self.terminal_ids.append(terminal_id)
        self.n_slots.append(n_slots)
        self.packet_capacities.append(packet_capacity)
        self.throughputs.append(throughput)

    def __len__(self) -> int:
        return len(self.terminal_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrantColumns):
            return NotImplemented
        return (
            self.terminal_ids == other.terminal_ids
            and self.n_slots == other.n_slots
            and self.packet_capacities == other.packet_capacities
            and self.throughputs == other.throughputs
        )

    @property
    def total_slots(self) -> int:
        """Total information slots granted."""
        return sum(self.n_slots)


class RequestColumns:
    """CHARISMA's pending requests of one frame as aligned NumPy columns.

    The pool holds the auto-generated requests of the reservation holders,
    this frame's contention winners and the popped request-queue backlog,
    in that order.  The priority metric and the polling short list are
    array math over the columns; the ranked allocation walk reads them as
    lists.

    Sentinels:

    * ``deadline_frames`` — ``-1`` means no deadline (data requests);
    * ``csi_amplitudes`` / ``csi_frames`` — ``NaN`` / ``-1`` mean no CSI
      estimate is attached.
    """

    __slots__ = (
        "terminal_ids",
        "is_voice",
        "arrival_frames",
        "deadline_frames",
        "csi_amplitudes",
        "csi_frames",
        "csi_validity",
    )

    def __init__(
        self,
        terminal_ids: np.ndarray,
        is_voice: np.ndarray,
        arrival_frames: np.ndarray,
        deadline_frames: np.ndarray,
        csi_amplitudes: Optional[np.ndarray] = None,
        csi_frames: Optional[np.ndarray] = None,
        csi_validity: int = 2,
    ) -> None:
        n = terminal_ids.shape[0]
        self.terminal_ids = terminal_ids
        self.is_voice = is_voice
        self.arrival_frames = arrival_frames
        self.deadline_frames = deadline_frames
        self.csi_amplitudes = (
            csi_amplitudes if csi_amplitudes is not None else np.full(n, np.nan)
        )
        self.csi_frames = (
            csi_frames
            if csi_frames is not None
            else np.full(n, -1, dtype=np.int64)
        )
        self.csi_validity = int(csi_validity)

    # ------------------------------------------------------------ factories
    @classmethod
    def empty(cls, csi_validity: int = 2) -> "RequestColumns":
        """Columns holding no requests."""
        return cls(
            terminal_ids=np.zeros(0, dtype=np.int64),
            is_voice=np.zeros(0, dtype=bool),
            arrival_frames=np.zeros(0, dtype=np.int64),
            deadline_frames=np.full(0, -1, dtype=np.int64),
            csi_validity=csi_validity,
        )

    @staticmethod
    def concatenate(parts: Sequence["RequestColumns"]) -> "RequestColumns":
        """Stack several column sets in order (e.g. reservations + new + backlog)."""
        if not parts:
            return RequestColumns.empty()
        return RequestColumns(
            terminal_ids=np.concatenate([p.terminal_ids for p in parts]),
            is_voice=np.concatenate([p.is_voice for p in parts]),
            arrival_frames=np.concatenate([p.arrival_frames for p in parts]),
            deadline_frames=np.concatenate([p.deadline_frames for p in parts]),
            csi_amplitudes=np.concatenate([p.csi_amplitudes for p in parts]),
            csi_frames=np.concatenate([p.csi_frames for p in parts]),
            csi_validity=parts[0].csi_validity,
        )

    # ------------------------------------------------------------------ API
    def __len__(self) -> int:
        return int(self.terminal_ids.shape[0])
