"""Voice reservation bookkeeping.

Every protocol in the paper grants voice users a *reservation*: once a voice
request has been served, the user keeps receiving a transmission opportunity
every 20 ms voice-packet period — without further contention — until the
current talkspurt ends.  Data users never get reservations.

:class:`ReservationTable` is the base station's view of which voice terminals
currently hold a reservation.  Protocols call :meth:`grant` when they first
serve a voice request, :meth:`release_ended_population` once per frame, and
:meth:`reserved_ids` to find the reservation holders that need a slot in the
current frame.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

__all__ = ["ReservationTable"]


class ReservationTable:
    """Tracks which voice terminals currently hold an uplink reservation."""

    def __init__(self) -> None:
        self._granted_frame: Dict[int, int] = {}
        self._holder_array: Optional[np.ndarray] = None

    def holder_array(self) -> np.ndarray:
        """Current holder ids as a sorted array (cached between changes).

        The MAC kernels consult the holders every frame while
        grants/releases are rare events, so the array is rebuilt lazily.
        """
        if self._holder_array is None:
            self._holder_array = np.fromiter(
                sorted(self._granted_frame), dtype=np.int64,
                count=len(self._granted_frame),
            )
        return self._holder_array

    # ------------------------------------------------------------------ API
    def __len__(self) -> int:
        return len(self._granted_frame)

    def __contains__(self, terminal_id: int) -> bool:
        return terminal_id in self._granted_frame

    def holders(self) -> List[int]:
        """Terminal ids currently holding a reservation (ascending)."""
        return sorted(self._granted_frame)

    def has(self, terminal_id: int) -> bool:
        """Whether the given terminal holds a reservation."""
        return terminal_id in self._granted_frame

    def grant(self, terminal_id: int, frame_index: int) -> None:
        """Grant a reservation to a voice terminal (idempotent)."""
        if terminal_id < 0:
            raise ValueError("terminal_id must be non-negative")
        if frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if terminal_id not in self._granted_frame:
            self._granted_frame[terminal_id] = frame_index
            self._holder_array = None

    def release(self, terminal_id: int) -> None:
        """Release a reservation (no-op if not held)."""
        if self._granted_frame.pop(terminal_id, None) is not None:
            self._holder_array = None

    def granted_at(self, terminal_id: int) -> int:
        """Frame at which the reservation was granted."""
        return self._granted_frame[terminal_id]

    def grant_many(self, terminal_ids: Iterable[int], frame_index: int) -> None:
        """Grant reservations to several terminals at once (idempotent)."""
        granted = self._granted_frame
        changed = False
        for terminal_id in terminal_ids:
            terminal_id = int(terminal_id)
            if terminal_id < 0:
                raise ValueError("terminal_id must be non-negative")
            if terminal_id not in granted:
                granted[terminal_id] = frame_index
                changed = True
        if changed:
            self._holder_array = None

    def reserved_ids(self, population) -> np.ndarray:
        """Reservation-holding voice terminal ids with packets buffered.

        Returned in ascending id order, read straight from the population's
        state arrays.
        """
        if not self._granted_frame:
            return np.zeros(0, dtype=np.int64)
        ids = self.holder_array()
        ids = ids[ids < len(population)]
        return ids[population.is_voice[ids] & (population.occupancy[ids] > 0)]

    def release_ended_population(self, population) -> int:
        """Release reservations of voice terminals whose talkspurt has ended.

        A reservation is released once the terminal has drained its buffer
        and left the talkspurt state — the paper's "until the current
        talkspurt terminates" rule.  Only the current holders are inspected,
        against the population's state arrays.  Returns the number of
        reservations released.
        """
        if not self._granted_frame:
            return 0
        ids = self.holder_array()
        ids = ids[ids < len(population)]
        releasable = ids[
            population.is_voice[ids]
            & ~population.in_talkspurt[ids]
            & (population.occupancy[ids] == 0)
        ]
        for terminal_id in releasable:
            self.release(int(terminal_id))
        return int(releasable.shape[0])

    def clear(self) -> None:
        """Drop all reservations (used between independent runs)."""
        self._granted_frame.clear()
        self._holder_array = None
