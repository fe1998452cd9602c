"""Request, acknowledgement and announcement records exchanged with the base station.

The uplink request packet of the paper (Fig. 9a) carries the mobile device
ID, the request type (voice or data), the packet deadline, the number of
information packets the device wishes to transmit, and pilot symbols from
which the base station estimates the sender's CSI.  The downlink
acknowledgement carries the successful request's ID, and the announcement
carries the slot allocation schedule plus the transmission mode to use.

No request is an object here: the base-station queue
(:class:`~repro.mac.request_queue.RequestQueue`) keeps its requests as
columns, CHARISMA pools a frame's requests in :class:`RequestColumns`, and
the protocols emit their grants as :class:`GrantColumns`.  These records
are plain data: all decision making lives in the protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "Acknowledgement",
    "Allocation",
    "FrameOutcome",
    "GrantColumns",
    "RequestColumns",
]


@dataclass(frozen=True)
class Acknowledgement:
    """Downlink acknowledgement of a successfully received request."""

    terminal_id: int
    request_slot: int
    frame_index: int


@dataclass(frozen=True)
class Allocation:
    """One entry of the downlink announcement: a slot grant to a terminal.

    Attributes
    ----------
    terminal_id:
        The granted mobile device.
    n_slots:
        Number of information slots granted in this frame.
    packet_capacity:
        Total number of packets those slots can carry at the announced mode.
    throughput:
        Normalised throughput of the announced transmission mode, or ``None``
        when the protocol runs on the fixed-rate PHY.
    """

    terminal_id: int
    n_slots: int
    packet_capacity: int
    throughput: Optional[float] = None

    def __post_init__(self) -> None:
        if self.terminal_id < 0:
            raise ValueError("terminal_id must be non-negative")
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.packet_capacity < 1:
            raise ValueError("packet_capacity must be at least 1")
        if self.throughput is not None and self.throughput <= 0:
            raise ValueError("throughput must be positive when given")


class GrantColumns:
    """One frame's slot grants as parallel columns instead of objects.

    The MAC kernels emit their grants by appending plain Python scalars to
    these four parallel lists; the engine's batched executor consumes the
    columns directly (index arrays into the population), so the hot loop
    never materialises an :class:`Allocation` per grant.  The object form
    is available on demand via :meth:`to_allocations` — that is what
    :attr:`FrameOutcome.allocations` lazily returns for tests and
    debugging.
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

    @property
    def total_slots(self) -> int:
        """Total information slots granted."""
        return sum(self.n_slots)

    def to_allocations(self) -> List[Allocation]:
        """Materialise the columns as validated :class:`Allocation` objects."""
        return [
            Allocation(
                terminal_id=int(tid),
                n_slots=int(slots),
                packet_capacity=int(capacity),
                throughput=None if throughput is None else float(throughput),
            )
            for tid, slots, capacity, throughput in zip(
                self.terminal_ids,
                self.n_slots,
                self.packet_capacities,
                self.throughputs,
            )
        ]


class FrameOutcome:
    """Everything a protocol decided in one frame, consumed by the engine.

    The protocols' ``run_frame_batch`` kernels fill :attr:`grants`
    (:class:`GrantColumns`) and never build per-grant objects; the engine
    transmits the columns.  Reading :attr:`allocations` materialises the
    objects on first access (and caches them) for tests, debugging and
    equality comparison.  An outcome built by hand may instead append
    :class:`Allocation` objects to :attr:`allocations` (the collector counts
    their slots), but the engine only transmits grant columns.

    Attributes
    ----------
    frame_index:
        The frame this outcome belongs to.
    allocations:
        Slot grants to be transmitted in this frame's information subframe.
    grants:
        The same grants in columnar form, when produced by a batch kernel.
    acknowledgements:
        Requests successfully received in the request phase.
    contention_attempts:
        Number of request transmissions attempted by mobile devices.
    contention_collisions:
        Number of request minislots wasted by collisions.
    idle_request_slots:
        Number of request minislots in which nobody transmitted.
    queued_requests:
        Number of requests sitting in the base-station queue after this frame.
    """

    __slots__ = (
        "frame_index",
        "_allocations",
        "grants",
        "acknowledgements",
        "contention_attempts",
        "contention_collisions",
        "idle_request_slots",
        "queued_requests",
    )

    def __init__(self, frame_index: int) -> None:
        self.frame_index = frame_index
        self._allocations: Optional[List[Allocation]] = None
        self.grants: Optional[GrantColumns] = None
        self.acknowledgements: List[Acknowledgement] = []
        self.contention_attempts = 0
        self.contention_collisions = 0
        self.idle_request_slots = 0
        self.queued_requests = 0

    @property
    def allocations(self) -> List[Allocation]:
        """The frame's grants as objects (materialised from columns lazily)."""
        if self._allocations is None:
            self._allocations = (
                self.grants.to_allocations() if self.grants is not None else []
            )
        return self._allocations

    @property
    def n_allocated_slots(self) -> int:
        """Total information slots granted in this frame."""
        if self._allocations is None and self.grants is not None:
            return self.grants.total_slots
        return sum(a.n_slots for a in self.allocations)

    @property
    def n_successful_requests(self) -> int:
        """Number of requests acknowledged in this frame."""
        return len(self.acknowledgements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameOutcome):
            return NotImplemented
        return (
            self.frame_index == other.frame_index
            and self.allocations == other.allocations
            and self.acknowledgements == other.acknowledgements
            and self.contention_attempts == other.contention_attempts
            and self.contention_collisions == other.contention_collisions
            and self.idle_request_slots == other.idle_request_slots
            and self.queued_requests == other.queued_requests
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrameOutcome(frame={self.frame_index}, "
            f"allocations={len(self.allocations)}, "
            f"acks={len(self.acknowledgements)})"
        )


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
