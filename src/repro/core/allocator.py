"""CSI-ranked information-slot allocator (paper Section 4.3, Fig. 8b).

After the request phase the base station holds a pool of pending requests —
new ones, backlogged ones, and the auto-generated requests of voice
reservation holders.  The allocator walks that pool in decreasing priority
order and hands out the ``N_i`` information slots of the frame:

* a voice request receives one slot (one 20 ms voice packet per period);
* a data request receives as many slots as it needs to drain its buffer at
  the mode its estimated CSI supports, bounded by what remains;
* a request whose estimated CSI is in *outage* (below the adaptation range)
  is deferred — granting it would almost certainly waste the slot — unless
  it is a voice request about to miss its deadline, in which case fairness
  wins and the slot is granted at the most robust mode anyway.

Requests left over (no slots, or deferred) are returned so the protocol can
queue them (with-queue variant) or drop them (without-queue variant).  The
walk runs over plain lists; the frame's priority ranking and mode lookup
are array math done before it (:meth:`CSIRankedAllocator.mode_columns`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.lint.contracts import kernel
from repro.mac.requests import GrantColumns
from repro.phy.abicm import AdaptiveModem

__all__ = ["CSIRankedAllocator"]


class CSIRankedAllocator:
    """Allocates information slots to prioritised requests.

    Parameters
    ----------
    modem:
        The adaptive modem (provides packets-per-slot at an estimated CSI).
    n_info_slots:
        Information slots available per frame (``N_i``).
    defer_deadline_margin:
        A voice request in outage is still granted a slot once its deadline
        is within this many frames (the "fairness" escape hatch); with the
        default of 2 the request gets one last-chance transmission before the
        packet would be dropped.
    """

    def __init__(
        self,
        modem: AdaptiveModem,
        n_info_slots: int,
        defer_deadline_margin: int = 2,
    ) -> None:
        if n_info_slots < 1:
            raise ValueError("n_info_slots must be at least 1")
        if defer_deadline_margin < 0:
            raise ValueError("defer_deadline_margin must be non-negative")
        self._modem = modem
        self._n_slots = int(n_info_slots)
        self._margin = int(defer_deadline_margin)
        self._lowest_throughput = modem.mode_table[0].throughput

    @property
    def n_info_slots(self) -> int:
        """Information slots available per frame."""
        return self._n_slots

    @property
    def defer_deadline_margin(self) -> int:
        """Frames-to-deadline below which outage voice requests are served anyway."""
        return self._margin

    # ------------------------------------------------------------------ API
    def mode_columns(
        self, amplitudes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One frame's mode lookup over the estimated CSIs of its requests.

        Returns ``(packets, throughput, channel)`` aligned with
        ``amplitudes``: the packets per slot and mode throughput the walk
        grants at (0 packets marks outage; a missing ``NaN`` estimate falls
        back to the most robust mode), and the priority metric's channel
        term ``f(CSI)`` (the throughput, 0 in outage and without an
        estimate).  One conversion feeds both the ranking and the walk.
        """
        table = self._modem.mode_table
        known = ~np.isnan(amplitudes)
        if known.all():
            indices_p1 = self._modem.mode_index(amplitudes) + 1
            throughput = table.throughput_by_mode_index[indices_p1]
            return table.packets_by_mode_index[indices_p1], throughput, throughput
        # Unknown estimates sit on LUT row 1 (the most robust mode); their
        # channel term is masked to 0.
        indices_p1 = np.ones(amplitudes.shape[0], dtype=np.int64)
        if known.any():
            indices_p1[known] = self._modem.mode_index(amplitudes[known]) + 1
        throughput = table.throughput_by_mode_index[indices_p1]
        return (
            table.packets_by_mode_index[indices_p1],
            throughput,
            np.where(known, throughput, 0.0),
        )

    @kernel(batch=False)
    def allocate(
        self,
        order: List[int],
        terminal_ids: List[int],
        deadline_frames: List[int],
        packets: List[int],
        throughputs: List[float],
        occupancy: Sequence[int],
        n_voice: int,
        n_reserved: int,
        frame_index: int,
        grants: GrantColumns,
    ) -> Tuple[List[int], List[int], List[int]]:
        """Walk the ranked request rows and grant the frame's slots.

        CHARISMA's allocation walk, run by
        :meth:`~repro.core.charisma.CharismaProtocol.run_frame`.
        ``order`` lists row indices, best first; the other sequences are
        per-row columns (``deadline_frames`` ``-1`` = none,
        ``packets``/``throughputs`` from :meth:`mode_columns`), except
        ``occupancy``, which maps terminal id to buffered packets.  A row
        is voice when its terminal id is below ``n_voice``; the first
        ``n_reserved`` rows are the reservation holders' own requests.

        Rows whose terminal has no packets are skipped.  An outage row is
        deferred unless it is a voice request within
        ``defer_deadline_margin`` frames of its deadline, which is served
        at the most robust mode.  A voice row takes one slot; a data row
        takes enough slots to drain its buffer, bounded by what remains.
        Grants land in ``grants``.  Returns ``(new_voice, unserved,
        deferred)``: the terminals of the served voice rows past the
        holders' (they take a reservation), then the rows left without a
        slot and the deferred rows, each in ranking order.
        """
        new_voice: List[int] = []
        unserved: List[int] = []
        deferred: List[int] = []
        append = grants.append
        lowest_throughput = self._lowest_throughput
        margin = self._margin
        slots_left = self._n_slots
        for row in order:
            tid = terminal_ids[row]
            occupancy_now = occupancy[tid]
            if occupancy_now == 0:
                continue
            if slots_left <= 0:
                unserved.append(row)
                continue
            row_packets = packets[row]
            throughput = throughputs[row]
            if row_packets == 0:
                deadline = deadline_frames[row]
                if (
                    tid < n_voice
                    and deadline >= 0
                    and deadline - frame_index <= margin
                ):
                    row_packets, throughput = 1, lowest_throughput
                else:
                    deferred.append(row)
                    continue
            if tid < n_voice:
                n_slots = 1
                if row >= n_reserved:
                    new_voice.append(tid)
            else:
                needed = -(-int(occupancy_now) // row_packets)
                n_slots = needed if needed < slots_left else slots_left
            append(tid, n_slots, row_packets * n_slots, throughput)
            slots_left -= n_slots
        return new_voice, unserved, deferred
