"""DRMA: Dynamic Reservation Multiple Access (Section 3.3).

DRMA has no dedicated request subframe at all: the frame consists of ``N_k``
information slots only.  Before each information slot the base station
announces whether the slot is already assigned; an *unassigned* slot is
converted on the fly into ``N_x`` request minislots in which active users
contend.  A successful request is granted an information slot (if one
remains) in the current frame; voice users keep their slot as a reservation,
data users must request again for further packets.

Because users can only contend when idle slots exist, the request load
self-throttles: at saturation there are no idle slots, hence no contention
and no collision cascade — DRMA degrades gracefully at high load, at the
price of announcement overhead and of "distributed queueing" (requests wait
at the users when the frame is full), which is also why adding a
base-station request queue helps it very little (Section 5.1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.channel.manager import ChannelSnapshot
from repro.lint.contracts import kernel
from repro.mac.base import MACProtocol
from repro.mac.contention import IndexContentionResult, run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import GrantColumns
from repro.phy.fixed import FixedRateModem

__all__ = ["DRMAProtocol"]


class DRMAProtocol(MACProtocol):
    """Dynamic frame: idle information slots become request minislots.

    DRMA runs on the fixed-rate PHY (every grant carries one packet); the
    constructor rejects an adaptive modem.
    """

    name = "drma"
    display_name = "DRMA"
    uses_adaptive_phy = False
    uses_csi_scheduling = False
    supports_request_queue = True

    def __init__(self, params, modem: FixedRateModem, *args, **kwargs) -> None:
        if modem.is_adaptive:
            raise ValueError("DRMA requires the fixed-rate physical layer")
        super().__init__(params, modem, *args, **kwargs)

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        # DRMA has no dedicated request subframe, but the per-slot assignment
        # announcements on the downlink consume roughly the bandwidth the
        # request subframe would have; the information-slot budget therefore
        # stays the same as the other protocols' and the comparison isolates
        # the access policy (the paper likewise stresses DRMA's announcement
        # overhead as the price of its dynamic structure).
        return FrameStructure(
            name=self.display_name,
            request_minislots=0,
            info_slots=self.params.n_info_slots,
            dynamic=True,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    def run_frame(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
        holders: List[int],
        candidate_ids: List[int],
        backlog,
        occupancy,
        draws,
    ) -> Tuple[IndexContentionResult, GrantColumns, List[int]]:
        """Slot-by-slot service; idle slots become request minislots.

        See :meth:`serve_slots`; the converted slots contend on the block's
        pool of contention-stream uniforms (``draws.pool``).  A fixed-rate
        grant needs no channel read, so ``snapshot`` is not read here.  The
        arguments and the returned triple are :meth:`MACProtocol.run_frame`'s.
        """
        grants, new_voice, leftovers, requests = self.serve_slots(
            holders,
            backlog.terminal_ids if backlog is not None else [],
            candidate_ids,
            occupancy,
            population.n_voice,
            draws.pool,
        )
        if leftovers:
            self.requeue(
                frame_index, population, backlog, requests.winner_ids, leftovers
            )
        return requests, grants, new_voice

    @kernel(batch=False)
    def serve_slots(
        self,
        holders: List[int],
        backlog_ids: List[int],
        candidate_ids: List[int],
        occupancy: Sequence[int],
        n_voice: int,
        pool,
    ) -> Tuple[GrantColumns, List[int], List[int], IndexContentionResult]:
        """DRMA's allocation body (see :meth:`run_frame`): one slot at a time.

        The pending pool is an id list advanced by a cursor: reservation
        holders first (ascending id), then the queued backlog in FIFO
        order, then the requests that succeed in converted slots of this
        frame.  Each information slot serves the next pending entry whose
        terminal has packets (one slot; a served voice request that is not
        a holder's takes a reservation).  With nothing left to serve, the
        slot converts into ``N_x`` request minislots:
        :func:`~repro.mac.contention.run_contention_ids` over the
        candidates (ascending id) with its per-minislot draws on ``pool``,
        anything that answers ``random(size)``; the winners join the
        pending pool.  A voice winner stops contending (it is about to hold
        a reservation), and so does a data winner with at most one packet;
        a data winner with a deeper buffer keeps contending and may win —
        and be served — again in this frame.

        Buffer occupancies are frozen for the frame, so the cursor never
        revisits an entry: service stays O(pending) even with hundreds of
        backlogged requests.  The entries the frame never reaches are the
        leftovers; holders among them wait for the next frame.

        Returns ``(grants, new_voice, leftovers, requests)``: the grants in
        slot order, the newly served voice terminals, the leftover rows as
        indices into ``backlog_ids + requests.winner_ids``, and the
        frame's summed contention statistics with every winner in request
        order.
        """
        pending = holders + backlog_ids
        n_holders = len(holders)
        minislots = self.frame_structure.minislots_per_info_slot
        served: List[int] = []
        new_voice: List[int] = []
        winner_ids: List[int] = []
        attempts = collisions = idle_slots = 0
        cursor = 0
        for _ in range(self.frame_structure.info_slots):
            served_id = -1
            while cursor < len(pending):
                tid = pending[cursor]
                cursor += 1
                if occupancy[tid] > 0:
                    served_id = tid
                    break
            if served_id >= 0:
                served.append(served_id)
                if served_id < n_voice and cursor > n_holders:
                    new_voice.append(served_id)
                continue

            # Idle information slot: convert it into N_x request minislots.
            slot = run_contention_ids(
                candidate_ids, n_voice, self.permission, minislots, pool
            )
            attempts += slot.attempts
            collisions += slot.collisions
            idle_slots += slot.idle_slots
            if not slot.winner_ids:
                continue
            dropped = None
            for winner in slot.winner_ids:
                winner_ids.append(winner)
                pending.append(winner)
                if winner < n_voice or occupancy[winner] <= 1:
                    if dropped is None:
                        dropped = set()
                    dropped.add(winner)
            if dropped is not None:
                candidate_ids = [
                    tid for tid in candidate_ids if tid not in dropped
                ]

        first_left = max(cursor, n_holders) - n_holders
        leftovers = list(range(first_left, len(pending) - n_holders))
        n = len(served)
        grants = GrantColumns(served, [1] * n, [1] * n, [None] * n)
        requests = IndexContentionResult(
            winner_ids, attempts, collisions, idle_slots
        )
        return grants, new_voice, leftovers, requests
