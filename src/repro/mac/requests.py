"""Request, acknowledgement and announcement records exchanged with the base station.

The uplink request packet of the paper (Fig. 9a) carries the mobile device
ID, the request type (voice or data), the packet deadline, the number of
information packets the device wishes to transmit, and pilot symbols from
which the base station estimates the sender's CSI.  The downlink
acknowledgement carries the successful request's ID, and the announcement
carries the slot allocation schedule plus the transmission mode to use.

These records are plain data: all decision making lives in the protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.phy.csi import CSIEstimate
from repro.traffic.packets import TrafficKind

__all__ = [
    "Request",
    "Acknowledgement",
    "Allocation",
    "FrameOutcome",
    "GrantColumns",
    "RequestColumns",
]


@dataclass
class Request:
    """A successfully received transmission request held at the base station.

    Attributes
    ----------
    terminal_id:
        The requesting mobile device.
    kind:
        Voice or data request.
    arrival_frame:
        Frame in which the request was successfully received (or auto-
        generated, for voice reservations).
    desired_packets:
        Number of information packets the device wishes to transmit.
    csi:
        The base station's CSI estimate for the device, if any (adaptive
        protocols only).
    deadline_frame:
        Deadline of the head-of-line voice packet; ``None`` for data.
    is_reservation:
        ``True`` for the periodic requests the base station auto-generates on
        behalf of voice users holding a reservation.
    """

    terminal_id: int
    kind: TrafficKind
    arrival_frame: int
    desired_packets: int = 1
    csi: Optional[CSIEstimate] = None
    deadline_frame: Optional[int] = None
    is_reservation: bool = False

    def __post_init__(self) -> None:
        if self.terminal_id < 0:
            raise ValueError("terminal_id must be non-negative")
        if self.arrival_frame < 0:
            raise ValueError("arrival_frame must be non-negative")
        if self.desired_packets < 1:
            raise ValueError("desired_packets must be at least 1")

    def waiting_frames(self, current_frame: int) -> int:
        """Frames elapsed since the request was received."""
        return max(0, current_frame - self.arrival_frame)

    def frames_to_deadline(self, current_frame: int) -> Optional[int]:
        """Frames remaining before the associated packet deadline."""
        if self.deadline_frame is None:
            return None
        return max(0, self.deadline_frame - current_frame)

    def is_expired(self, current_frame: int) -> bool:
        """Whether the associated voice deadline has already passed."""
        return self.deadline_frame is not None and current_frame >= self.deadline_frame


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

    def __init__(self) -> None:
        self.terminal_ids: List[int] = []
        self.n_slots: List[int] = []
        self.packet_capacities: List[int] = []
        #: Announced mode throughput per grant; ``None`` on the fixed PHY.
        self.throughputs: List[Optional[float]] = []

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

    def use_grant_columns(self) -> GrantColumns:
        """Switch this outcome to the columnar grant representation."""
        if self._allocations is not None:
            raise RuntimeError(
                "cannot mix Allocation-object and GrantColumns emission in "
                "one FrameOutcome"
            )
        if self.grants is None:
            self.grants = GrantColumns()
        return self.grants

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
    """A frame's pending requests as aligned columns instead of objects.

    The base station's per-frame request pool — contention winners, the
    auto-generated requests of voice reservation holders, and the queued
    backlog — lives in parallel NumPy columns: booking a request is an array
    append, priority ranking is array math over the columns, and service
    order is an argsort — no per-request object is built in the hot loop.

    Sentinels (column encodings of the object form's ``None``):

    * ``deadline_frames`` — ``-1`` means no deadline (data requests);
    * ``csi_amplitudes`` / ``csi_frames`` — ``NaN`` / ``-1`` mean no CSI
      estimate is attached.

    :meth:`to_requests` materialises selected rows back into validated
    :class:`Request` objects — that is how leftovers re-enter the
    (object-form) base-station queue, so both representations round-trip.
    """

    __slots__ = (
        "terminal_ids",
        "is_voice",
        "arrival_frames",
        "desired_packets",
        "deadline_frames",
        "is_reservation",
        "csi_amplitudes",
        "csi_frames",
        "csi_validity",
    )

    def __init__(
        self,
        terminal_ids: np.ndarray,
        is_voice: np.ndarray,
        arrival_frames: np.ndarray,
        desired_packets: np.ndarray,
        deadline_frames: np.ndarray,
        is_reservation: np.ndarray,
        csi_amplitudes: Optional[np.ndarray] = None,
        csi_frames: Optional[np.ndarray] = None,
        csi_validity: int = 2,
    ) -> None:
        n = terminal_ids.shape[0]
        self.terminal_ids = terminal_ids
        self.is_voice = is_voice
        self.arrival_frames = arrival_frames
        self.desired_packets = desired_packets
        self.deadline_frames = deadline_frames
        self.is_reservation = is_reservation
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
            desired_packets=np.zeros(0, dtype=np.int64),
            deadline_frames=np.full(0, -1, dtype=np.int64),
            is_reservation=np.zeros(0, dtype=bool),
            csi_validity=csi_validity,
        )

    @classmethod
    def from_requests(
        cls, requests: Sequence[Request], csi_validity: int = 2
    ) -> "RequestColumns":
        """Columnise :class:`Request` objects (the queue backlog interop)."""
        n = len(requests)
        columns = cls(
            terminal_ids=np.fromiter(
                (r.terminal_id for r in requests), dtype=np.int64, count=n
            ),
            is_voice=np.fromiter(
                (r.kind.is_voice for r in requests), dtype=bool, count=n
            ),
            arrival_frames=np.fromiter(
                (r.arrival_frame for r in requests), dtype=np.int64, count=n
            ),
            desired_packets=np.fromiter(
                (r.desired_packets for r in requests), dtype=np.int64, count=n
            ),
            deadline_frames=np.fromiter(
                (
                    -1 if r.deadline_frame is None else r.deadline_frame
                    for r in requests
                ),
                dtype=np.int64,
                count=n,
            ),
            is_reservation=np.fromiter(
                (r.is_reservation for r in requests), dtype=bool, count=n
            ),
            csi_amplitudes=np.fromiter(
                (np.nan if r.csi is None else r.csi.amplitude for r in requests),
                dtype=float,
                count=n,
            ),
            csi_frames=np.fromiter(
                (-1 if r.csi is None else r.csi.frame_index for r in requests),
                dtype=np.int64,
                count=n,
            ),
            csi_validity=csi_validity,
        )
        return columns

    @staticmethod
    def concatenate(parts: Sequence["RequestColumns"]) -> "RequestColumns":
        """Stack several column sets in order (e.g. reservations + new + backlog)."""
        if not parts:
            return RequestColumns.empty()
        validity = parts[0].csi_validity
        return RequestColumns(
            terminal_ids=np.concatenate([p.terminal_ids for p in parts]),
            is_voice=np.concatenate([p.is_voice for p in parts]),
            arrival_frames=np.concatenate([p.arrival_frames for p in parts]),
            desired_packets=np.concatenate([p.desired_packets for p in parts]),
            deadline_frames=np.concatenate([p.deadline_frames for p in parts]),
            is_reservation=np.concatenate([p.is_reservation for p in parts]),
            csi_amplitudes=np.concatenate([p.csi_amplitudes for p in parts]),
            csi_frames=np.concatenate([p.csi_frames for p in parts]),
            csi_validity=validity,
        )

    # ------------------------------------------------------------------ API
    def __len__(self) -> int:
        return int(self.terminal_ids.shape[0])

    def frames_to_deadline(self, row: int, current_frame: int) -> Optional[int]:
        """Frames remaining before the row's deadline (``None`` if none)."""
        deadline = int(self.deadline_frames[row])
        if deadline < 0:
            return None
        return max(0, deadline - current_frame)

    def set_csi(self, row: int, amplitude: float, frame_index: int) -> None:
        """Attach a (fresh) CSI estimate to one row."""
        self.csi_amplitudes[row] = amplitude
        self.csi_frames[row] = frame_index

    def to_requests(self, rows: Optional[Sequence[int]] = None) -> List[Request]:
        """Materialise (selected) rows as :class:`Request` objects."""
        if rows is None:
            rows = range(len(self))
        requests: List[Request] = []
        for row in rows:
            csi_frame = int(self.csi_frames[row])
            amplitude = float(self.csi_amplitudes[row])
            csi = None
            if csi_frame >= 0 or not np.isnan(amplitude):
                csi = CSIEstimate(
                    amplitude=amplitude,
                    frame_index=max(0, csi_frame),
                    validity_frames=self.csi_validity,
                )
            deadline = int(self.deadline_frames[row])
            requests.append(
                Request(
                    terminal_id=int(self.terminal_ids[row]),
                    kind=(
                        TrafficKind.VOICE
                        if self.is_voice[row]
                        else TrafficKind.DATA
                    ),
                    arrival_frame=int(self.arrival_frames[row]),
                    desired_packets=int(self.desired_packets[row]),
                    csi=csi,
                    deadline_frame=None if deadline < 0 else deadline,
                    is_reservation=bool(self.is_reservation[row]),
                )
            )
        return requests
