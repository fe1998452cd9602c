"""Base-station request queue.

Section 4.5 of the paper: every protocol except RMAV can optionally keep a
*request queue* at the base station, storing requests that survived the
contention but were not allocated information slots in their frame.  Such
requests are reconsidered in later frames instead of forcing the mobile
device to contend again.  Queued voice requests whose deadline has already
expired are discarded (the corresponding packet is dropped at the device).

The queue keeps its requests as FIFO columns — terminal id, arrival frame,
deadline and, for CHARISMA, the attached CSI estimate — so no per-request
object is ever built.  A row is a voice request when its terminal id falls
in the population's voice block (``id < n_voice``).  Each frame the frame
loop prunes the queue and pops the whole backlog, and the protocol's frame
method serves it together with the frame's new requests and pushes back
what stays unserved: the FCFS baselines serve the backlog in order,
CHARISMA re-ranks it by the CSI/urgency priority metric.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple

import numpy as np

from repro.lint.contracts import kernel

__all__ = ["QueuedRequests", "RequestQueue"]


class QueuedRequests(NamedTuple):
    """The queue's rows as parallel FIFO columns (plain lists).

    ``deadline_frames`` holds ``-1`` for no deadline (data requests);
    ``csi_amplitudes`` / ``csi_frames`` hold ``NaN`` / ``-1`` when no CSI
    estimate is attached (every protocol but CHARISMA).
    """

    terminal_ids: List[int]
    arrival_frames: List[int]
    deadline_frames: List[int]
    csi_amplitudes: List[float]
    csi_frames: List[int]

    def row(self, index: int) -> Tuple[int, int, int, float, int]:
        """One row as ``push`` arguments (it keeps its arrival and deadline)."""
        return (
            self.terminal_ids[index],
            self.arrival_frames[index],
            self.deadline_frames[index],
            self.csi_amplitudes[index],
            self.csi_frames[index],
        )


def _no_rows() -> QueuedRequests:
    return QueuedRequests([], [], [], [], [])


class RequestQueue:
    """Bounded FIFO of pending requests held at the base station.

    Parameters
    ----------
    capacity:
        Maximum number of stored requests; arrivals beyond the capacity are
        rejected (the device will simply contend again later), which bounds
        the base station's state as a real implementation would.

    A terminal may hold several rows (DRMA re-queues a data winner with a
    deep buffer once per request it won).  The queue pickles with its rows,
    so forked constellation workers can send their shards back.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = int(capacity)
        self._rows = _no_rows()
        # Queued-row count per terminal id: every contention candidate is
        # screened against the queue, so membership is a dict lookup.
        self._per_terminal: Dict[int, int] = {}

    # ------------------------------------------------------------------ API
    @property
    def capacity(self) -> int:
        """Maximum number of stored requests."""
        return self._capacity

    @property
    def rows(self) -> QueuedRequests:
        """The queued rows in FIFO order (read-only view of the columns)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows.terminal_ids)

    @property
    def is_full(self) -> bool:
        """Whether the queue has reached its capacity."""
        return len(self._rows.terminal_ids) >= self._capacity

    def contains_terminal(self, terminal_id: int) -> bool:
        """Whether a request from the given terminal is already queued."""
        return terminal_id in self._per_terminal

    def terminal_id_array(self) -> np.ndarray:
        """Ids of the terminals with at least one queued request (unsorted).

        Used to mask queued terminals out of contention and out of the
        constellation's handover candidates.
        """
        return np.fromiter(
            self._per_terminal, dtype=np.int64, count=len(self._per_terminal)
        )

    def push(
        self,
        terminal_id: int,
        arrival_frame: int,
        deadline_frame: int = -1,
        csi_amplitude: float = float("nan"),
        csi_frame: int = -1,
    ) -> bool:
        """Queue one request; returns ``False`` if the queue is full."""
        rows = self._rows
        if len(rows.terminal_ids) >= self._capacity:
            return False
        rows.terminal_ids.append(terminal_id)
        rows.arrival_frames.append(arrival_frame)
        rows.deadline_frames.append(deadline_frame)
        rows.csi_amplitudes.append(csi_amplitude)
        rows.csi_frames.append(csi_frame)
        counts = self._per_terminal
        counts[terminal_id] = counts.get(terminal_id, 0) + 1
        return True

    def extend(self, requests: Iterable[Tuple]) -> int:
        """Queue rows of ``push`` arguments in order; returns how many fit.

        The queue accepts the longest prefix its capacity allows.
        """
        accepted = 0
        for request in requests:
            if not self.push(*request):
                break
            accepted += 1
        return accepted

    def pop_all(self) -> QueuedRequests:
        """Remove and return every queued row in FIFO order."""
        rows = self._rows
        self._rows = _no_rows()
        self._per_terminal = {}
        return rows

    @kernel(batch=False)
    def prune(self, frame_index: int, occupancy: np.ndarray) -> int:
        """Drop the rows that can no longer be served; return how many.

        One vectorised pass drops voice requests whose deadline has passed
        (their packet has been dropped at the device), requests of
        terminals whose buffer has emptied (the talkspurt ended or the
        burst was already served) and ids outside the population.
        """
        rows = self._rows
        n = len(rows.terminal_ids)
        if not n:
            return 0
        tids = np.asarray(rows.terminal_ids, dtype=np.int64)
        deadlines = np.asarray(rows.deadline_frames, dtype=np.int64)
        keep = (deadlines < 0) | (deadlines > frame_index)
        inside = tids < occupancy.shape[0]
        keep &= inside
        keep[inside] &= occupancy[tids[inside]] > 0
        if keep.all():
            return 0
        kept = np.flatnonzero(keep).tolist()
        self._rows = QueuedRequests(
            *([column[i] for i in kept] for column in rows)
        )
        counts: Dict[int, int] = {}
        for tid in self._rows.terminal_ids:
            counts[tid] = counts.get(tid, 0) + 1
        self._per_terminal = counts
        return n - len(kept)

    def clear(self) -> None:
        """Empty the queue."""
        self._rows = _no_rows()
        self._per_terminal = {}
