"""Voice reservation bookkeeping.

Every protocol in the paper grants voice users a *reservation*: once a voice
request has been served, the user keeps receiving a transmission opportunity
every 20 ms voice-packet period — without further contention — until the
current talkspurt ends.  Data users never get reservations.

:class:`ReservationTable` is the base station's view of which voice terminals
currently hold a reservation.  The frame loop calls :meth:`grant` when a
voice request is first served and :meth:`live_holders` once per frame, which
releases the ended reservations and returns the holders that need a slot in
the current frame.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Set

import numpy as np

from repro.lint.contracts import kernel

__all__ = ["ReservationTable"]


class ReservationTable:
    """Tracks which voice terminals currently hold an uplink reservation."""

    def __init__(self) -> None:
        #: The holder ids (read-only outside this class; the frame loop
        #: tests membership here).
        self.granted: Set[int] = set()
        # The holders in ascending id order, kept sorted as they change.
        self._sorted: List[int] = []
        self._holder_array: Optional[np.ndarray] = None

    def holder_array(self) -> np.ndarray:
        """Current holder ids as a sorted array (cached between changes)."""
        if self._holder_array is None:
            self._holder_array = np.asarray(self._sorted, dtype=np.int64)
        return self._holder_array

    # ------------------------------------------------------------------ API
    def __len__(self) -> int:
        return len(self.granted)

    def __contains__(self, terminal_id: int) -> bool:
        return terminal_id in self.granted

    def holders(self) -> List[int]:
        """Terminal ids currently holding a reservation (ascending)."""
        return list(self._sorted)

    def grant(self, terminal_id: int) -> None:
        """Grant a reservation to a voice terminal (idempotent)."""
        if terminal_id < 0:
            raise ValueError("terminal_id must be non-negative")
        if terminal_id not in self.granted:
            self.granted.add(terminal_id)
            insort(self._sorted, terminal_id)
            self._holder_array = None

    def release(self, terminal_id: int) -> None:
        """Release a reservation (no-op if not held)."""
        if terminal_id in self.granted:
            self.granted.remove(terminal_id)
            self._sorted.remove(terminal_id)
            self._holder_array = None

    @kernel(batch=False)
    def live_holders(self, occupancy, in_talkspurt) -> List[int]:
        """Release ended reservations; return the holders with packets.

        A holder with an empty buffer that has left its talkspurt gives its
        reservation back — the paper's "until the current talkspurt
        terminates" rule.  ``occupancy`` (a list or an array) and
        ``in_talkspurt`` are indexed by terminal id.  The holders with
        packets come back in ascending id order.
        """
        live: List[int] = []
        ended = None
        for tid in self._sorted:
            if occupancy[tid] > 0:
                live.append(tid)
            elif not in_talkspurt[tid]:
                if ended is None:
                    ended = []
                ended.append(tid)
        if ended is not None:
            for tid in ended:
                self.release(tid)
        return live

    def clear(self) -> None:
        """Drop all reservations (used between independent runs)."""
        self.granted.clear()
        self._sorted.clear()
        self._holder_array = None
