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
queue them (with-queue variant) or drop them (without-queue variant).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.mac.requests import GrantColumns, RequestColumns
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
        self._column_lut: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def n_info_slots(self) -> int:
        """Information slots available per frame."""
        return self._n_slots

    @property
    def defer_deadline_margin(self) -> int:
        """Frames-to-deadline below which outage voice requests are served anyway."""
        return self._margin

    # ------------------------------------------------------------------ API
    def allocate_columns(
        self,
        columns: RequestColumns,
        order: np.ndarray,
        population,
        frame_index: int,
        grants: GrantColumns,
        per_slot: Optional[np.ndarray] = None,
        throughput: Optional[np.ndarray] = None,
    ) -> Tuple[List[int], List[int]]:
        """Grant the frame's information slots to the ranked request rows.

        ``order`` is the priority ranking (row indices, best first); grants
        land in ``grants`` and the method returns ``(unserved_rows,
        deferred_rows)`` so the protocol can queue the leftovers.  The
        per-row capacities come from one vectorised mode lookup over the
        estimated CSIs (zero packets marks outage; a missing estimate falls
        back to the most robust mode), and the sequential slots-left walk
        runs over plain Python scalars.  Rows whose terminal has no packets
        left are skipped; an outage row is deferred unless it is a voice
        request within ``defer_deadline_margin`` frames of its deadline,
        which is served at the most robust mode.  ``per_slot``/``throughput``
        optionally supply the capacity columns from a caller that already
        performed the frame's mode lookup.
        """
        n = len(columns)
        unserved: List[int] = []
        deferred: List[int] = []
        if n == 0:
            return unserved, deferred
        if per_slot is None or throughput is None:
            packs_lut, thr_lut = self._column_tables()
            per_slot = np.zeros(n, dtype=np.int64)
            throughput = np.zeros(n, dtype=float)
            known = ~np.isnan(columns.csi_amplitudes)
            unknown = ~known
            if unknown.any():
                per_slot[unknown] = packs_lut[1]
                throughput[unknown] = thr_lut[1]
            if known.any():
                # mode_index yields -1 for outage, i for mode i; +1 lands on
                # the LUT rows (0 = outage, i + 1 = mode i).
                indices = self._modem.mode_index(columns.csi_amplitudes[known]) + 1
                per_slot[known] = packs_lut[indices]
                throughput[known] = thr_lut[indices]

        occupancies = population.occupancy[columns.terminal_ids]
        tid_list = columns.terminal_ids.tolist()
        voice_list = columns.is_voice.tolist()
        occupancy_list = occupancies.tolist()
        per_list = per_slot.tolist()
        throughput_list = throughput.tolist()
        deadline_list = columns.deadline_frames.tolist()
        lowest_throughput = self._modem.mode_table[0].throughput
        margin = self._margin
        append = grants.append
        slots_left = self._n_slots

        for row in order.tolist():
            occupancy = occupancy_list[row]
            if occupancy == 0:
                continue
            if slots_left <= 0:
                unserved.append(row)
                continue
            packets = per_list[row]
            mode_throughput = throughput_list[row]
            if packets == 0:
                deadline = deadline_list[row]
                if (
                    voice_list[row]
                    and deadline >= 0
                    and max(0, deadline - frame_index) <= margin
                ):
                    packets, mode_throughput = 1, lowest_throughput
                else:
                    deferred.append(row)
                    continue
            if voice_list[row]:
                n_slots = 1
            else:
                needed = math.ceil(occupancy / max(1, packets))
                n_slots = max(1, min(slots_left, needed))
            append(tid_list[row], n_slots, packets * n_slots, mode_throughput)
            slots_left -= n_slots
        return unserved, deferred

    # ------------------------------------------------------------ internals
    def _column_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-mode (packets, throughput) lookup: row 0 outage, row 1+ modes.

        Row 0 encodes outage as zero packets (NaN throughput, never
        granted); row ``mode_index + 1`` holds the mode's capacity pair,
        with "no estimate" mapping to row 1 (the most robust mode).
        """
        if self._column_lut is None:
            table = self._modem.mode_table
            reference = table.reference_throughput
            packs = [0] + [
                table[i].packets_per_slot(reference) for i in range(len(table))
            ]
            thrs = [np.nan] + [table[i].throughput for i in range(len(table))]
            self._column_lut = (
                np.asarray(packs, dtype=np.int64),
                np.asarray(thrs, dtype=float),
            )
        return self._column_lut
