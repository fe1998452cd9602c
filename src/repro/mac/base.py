"""Abstract base class and shared machinery for uplink MAC protocols.

Every protocol in the study — the five baselines and CHARISMA — is a
:class:`MACProtocol`.  The macro runner (:class:`~repro.sim.macro.MacroRunner`,
the engine's one frame loop) drives it with one call per 2.5 ms TDMA
frame::

    request, grants, new_voice = protocol.run_frame(
        frame_index, population, snapshot, holders,
        candidate_ids, backlog, occupancy, draws,
    )

The runner hands over the frame's live reservation holders, its contention
candidates (ascending terminal ids, kept as an incremental mirror) and the
popped request backlog; the protocol runs its request and allocation phases,
reads the channel of only the terminals it serves through the snapshot's
``read``/``gather`` methods, re-queues what it leaves unserved, and returns
the request statistics, the grants as
:class:`~repro.mac.requests.GrantColumns` and the newly served voice
terminals.  The runner then takes the reservations, transmits the grants
through the PHY error model and records the frame.  The base class provides
the machinery all protocols share:

* the contention candidates as ascending id arrays (a candidate's
  permission probability follows from its id: voice below ``n_voice``),
* the voice reservation table ("a slot every 20 ms until the talkspurt
  ends"),
* the optional base-station request queue,
* the frame method of RMAV, both D-TDMA variants and RAMA: a request phase
  (:meth:`MACProtocol.request_phase`) followed by FCFS service
  (:meth:`MACProtocol.serve_fcfs`),
* translation of a channel state into an information-slot packet capacity
  via the protocol's modem (adaptive or fixed-rate).
"""

from __future__ import annotations

import abc
from typing import ClassVar, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.lint.contracts import kernel
from repro.mac.contention import IndexContentionResult, run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.request_queue import QueuedRequests, RequestQueue
from repro.mac.requests import GrantColumns
from repro.mac.reservation import ReservationTable
from repro.phy.abicm import AdaptiveModem
from repro.phy.fixed import FixedRateModem
from repro.traffic.permission import PermissionPolicy

__all__ = ["MACProtocol", "Modem"]

Modem = Union[AdaptiveModem, FixedRateModem]


def snapshot_snr_compatible(modem, params: SimulationParameters) -> bool:
    """Whether a snapshot's SNR reads can replace the modem's conversion.

    :class:`~repro.channel.manager.ChannelSnapshot` and the modems apply the
    same ``mean_snr_db + 20 log10(amplitude)`` convention, so snapshot SNR
    reads are interchangeable with per-grant conversion exactly when
    the mean-SNR operating points agree (always true for registry-built
    protocols; custom test modems may differ).  Single source of truth for
    the engine's and the MAC substrate's reuse decisions.
    """
    return getattr(modem, "mean_snr_db", None) == params.mean_snr_db


class MACProtocol(abc.ABC):
    """Common behaviour of all uplink access-control protocols.

    Parameters
    ----------
    params:
        Simulation parameters (Table 1).
    modem:
        The physical layer the protocol runs on.  CHARISMA and D-TDMA/VR use
        an :class:`~repro.phy.abicm.AdaptiveModem`; the other baselines a
        :class:`~repro.phy.fixed.FixedRateModem`.
    rng:
        Random generator dedicated to MAC decisions (contention draws,
        auction ids, ...), independent of the channel and error streams.
    use_request_queue:
        Whether the base station keeps the optional request queue of
        Section 4.5.  Ignored for protocols that do not support one (RMAV).
    contention_rng:
        Fast RNG mode's contention child stream (see
        :meth:`repro.sim.rng.RandomStreams.child`): given one, the protocol
        batches a frame's contention draws into single calls on it —
        statistically equivalent to parity, not bit-identical.  ``None``
        (the default) keeps every draw in the fixed scalar order on ``rng``
        that the golden baselines in ``tests/golden`` pin.
    """

    #: Short machine-readable identifier (registry key).
    name: ClassVar[str] = "abstract"
    #: Human-readable protocol name used in result tables.
    display_name: ClassVar[str] = "abstract"
    #: Whether the protocol runs on the variable-throughput adaptive PHY.
    uses_adaptive_phy: ClassVar[bool] = False
    #: Whether the protocol feeds CSI into its scheduling decisions.
    uses_csi_scheduling: ClassVar[bool] = False
    #: Whether the optional base-station request queue is meaningful.
    supports_request_queue: ClassVar[bool] = True

    def __init__(
        self,
        params: SimulationParameters,
        modem: Modem,
        rng: np.random.Generator,
        use_request_queue: bool = False,
        contention_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.params = params
        self.modem = modem
        self.rng = rng
        #: Whether the protocol batches draws on fast mode's child streams.
        self.rng_fast = contention_rng is not None
        #: Stream contention draws come from: the shared MAC stream in
        #: parity mode (scalar call order preserved), a dedicated child in
        #: fast mode (whole-frame batched draws).
        self.contention_rng = rng if contention_rng is None else contention_rng
        self.permission = PermissionPolicy(
            params.voice_permission_probability,
            params.data_permission_probability,
        )
        self.reservations = ReservationTable()
        self.use_request_queue = bool(use_request_queue) and self.supports_request_queue
        self.request_queue: Optional[RequestQueue] = (
            RequestQueue(params.request_queue_capacity) if self.use_request_queue else None
        )
        self.frame_structure = self._build_frame_structure()
        self._snapshot_snr_usable = snapshot_snr_compatible(modem, params)
        self._capacity_lut: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ----------------------------------------------------------- interface
    @abc.abstractmethod
    def _build_frame_structure(self) -> FrameStructure:
        """Return the protocol's uplink frame layout."""

    @kernel(batch=False)
    def run_frame(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
        holders: List[int],
        candidate_ids: List[int],
        backlog: Optional[QueuedRequests],
        occupancy,
        draws,
    ) -> Tuple[IndexContentionResult, GrantColumns, List[int]]:
        """Run the request and allocation phases of one frame.

        ``holders`` are the reservation holders with packets (ascending
        id); ``candidate_ids`` the contention candidates (ascending id,
        which :func:`~repro.mac.contention.run_contention_ids` requires);
        ``backlog`` the rows popped from the pruned request
        queue (``None`` when it was empty); ``occupancy`` the buffer
        occupancies by terminal id (a list or an array); ``draws`` the
        block's pooled draws (:class:`~repro.sim.macro.BlockDraws`).
        Unserved requests go back to the queue here.

        This is the frame of RMAV, both D-TDMA variants and RAMA:
        :meth:`request_phase`, then :meth:`serve_fcfs`.  Returns
        ``(request, grants, new_voice)``: the request phase's statistics
        with its winners in order, the frame's grants, and the newly served
        voice terminals, which the caller grants a reservation.
        """
        request = self.request_phase(candidate_ids, population.n_voice)
        winner_ids = request.winner_ids
        grants, new_voice, unserved = self.serve_fcfs(
            holders,
            backlog.terminal_ids if backlog is not None else [],
            winner_ids,
            occupancy,
            snapshot,
            population.n_voice,
        )
        if unserved:
            self.requeue(frame_index, population, backlog, winner_ids, unserved)
        return request, grants, new_voice

    def request_phase(
        self, candidate_ids: List[int], n_voice: int
    ) -> IndexContentionResult:
        """Slotted contention over the frame's request minislots.

        :func:`~repro.mac.contention.run_contention_ids` on the contention
        stream, gated by :attr:`permission`; RAMA overrides it with its
        auction.
        """
        return run_contention_ids(
            candidate_ids,
            n_voice,
            self.permission,
            self.frame_structure.request_minislots,
            self.contention_rng,
            fast=self.rng_fast,
        )

    # ------------------------------------------------- array-native kernels
    def contention_candidate_ids(self, population) -> np.ndarray:
        """Terminals that would transmit a request this frame.

        * a voice terminal contends while it is in a talkspurt, has packets
          buffered and holds no reservation;
        * a data terminal contends while it has packets buffered;
        * terminals whose earlier request is still queued at the base station
          do not contend again (they are waiting for the announcement).

        Returns the candidate terminal ids in ascending order, ready for
        :func:`~repro.mac.contention.run_contention_ids`.
        """
        mask = population.occupancy > 0
        mask &= population.is_data_mask | population.in_talkspurt
        holders = self.reservations.holder_array()
        if holders.shape[0]:
            holders = holders[holders < mask.shape[0]]
            mask[holders[population.is_voice[holders]]] = False
        if self.request_queue is not None and len(self.request_queue):
            queued = self.request_queue.terminal_id_array()
            queued = queued[queued < mask.shape[0]]
            mask[queued] = False
        return mask.nonzero()[0]

    def _capacity_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-mode (packets-per-slot, throughput) lookup, outage at index 0.

        Row ``mode_index + 1`` holds the mode's capacity pair; row 0 holds
        the outage fallback — one packet at the most robust mode — so a
        vectorised ``mode_index_for_snr`` result indexes the tables with a
        single ``+1`` shift.
        """
        if self._capacity_lut is None:
            table = self.modem.mode_table
            reference = table.reference_throughput
            packs = [1] + [
                table[i].packets_per_slot(reference) for i in range(len(table))
            ]
            thrs = [table[0].throughput] + [
                table[i].throughput for i in range(len(table))
            ]
            self._capacity_lut = (
                np.asarray(packs, dtype=np.int64),
                np.asarray(thrs, dtype=float),
            )
        return self._capacity_lut

    @kernel
    def grant_capacity_columns(
        self, ids: Union[np.ndarray, Sequence[int]], snapshot: ChannelSnapshot
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-terminal slot capacities from one channel snapshot gather.

        Returns ``(packets_per_slot, throughputs)`` aligned with ``ids``;
        ``throughputs`` is ``None`` on the fixed-rate PHY (every grant
        carries one packet per slot at the nominal mode).  On the adaptive
        PHY an outage channel still yields one packet at the most robust
        mode — transmitting is allowed, it is just likely to fail — because
        the non-CSI-aware protocols (D-TDMA/VR) do exactly that; CSI-aware
        allocation (CHARISMA) avoids granting such slots in the first place.
        """
        if not self.modem.is_adaptive:
            return np.ones(len(ids), dtype=np.int64), None
        if self._snapshot_snr_usable:
            snr_db = snapshot.gather(ids, snr_db=True)
        else:
            snr_db = self.modem.snr_db_from_amplitude(snapshot.gather(ids))
        indices = self.modem.mode_table.mode_index_for_snr(snr_db) + 1
        packs, thrs = self._capacity_tables()
        return packs[indices], thrs[indices]

    def voice_deadline(self, population, terminal_id: int, frame_index: int) -> int:
        """Deadline frame of a new request: its head-of-line voice packet's.

        ``-1`` (no deadline) for data terminals and for a voice terminal
        without a buffered packet.
        """
        if terminal_id >= population.n_voice:
            return -1
        head = int(population.head_created[terminal_id])
        if head < 0:
            return -1
        return frame_index + max(
            0, head + self.params.voice_deadline_frames - frame_index
        )

    @kernel(batch=False)
    def serve_fcfs(
        self,
        holders: List[int],
        backlog_ids: List[int],
        winner_ids: List[int],
        occupancy,
        snapshot: ChannelSnapshot,
        n_voice: int,
        data_cap: Optional[int] = None,
    ) -> Tuple[GrantColumns, List[int], List[int]]:
        """First-come-first-served allocation of one frame's information slots.

        The allocation phase of :meth:`run_frame` (RMAV, D-TDMA/FR,
        D-TDMA/VR and RAMA).  The service order is:

        1. the reservation holders with packets (``holders``, ascending
           id), one slot each while slots remain;
        2. every voice request, one slot each — queued ones first, in
           FIFO order, then this frame's winners in request order; each
           served terminal acquires a reservation;
        3. every data request, queued first, then new — enough slots to
           drain the terminal's buffer at its channel's packets-per-slot,
           at most ``data_cap`` (RMAV's ``P_max``) and at most what remains.

        So a new voice winner beats a queued data request.  Rows index the
        request pool ``backlog_ids + winner_ids``; a row is voice when its
        terminal id is below ``n_voice``, and a row whose terminal's buffer
        is empty is skipped.  ``occupancy`` holds the buffer occupancies by
        terminal id (a list or an array).  The capacities come from one
        channel read over the served holders, the served voice rows and
        then every live data row, in that order — the order fast mode's
        lazy channels advance in.

        Returns ``(grants, new_voice, unserved)``: the grants in service
        order, the newly served voice terminals (they take a reservation)
        and the unserved rows in service order (the caller re-queues them
        or drops them).
        """
        slots_left = self.frame_structure.info_slots
        voice_ids = holders[:slots_left]
        slots_left -= len(voice_ids)
        new_voice: List[int] = []
        unserved: List[int] = []
        data_rows: List[int] = []
        pool = backlog_ids + winner_ids if backlog_ids else winner_ids
        for row, tid in enumerate(pool):
            if occupancy[tid] <= 0:
                continue
            if tid >= n_voice:
                data_rows.append(row)
            elif slots_left > 0:
                new_voice.append(tid)
                slots_left -= 1
            else:
                unserved.append(row)
        if new_voice:
            voice_ids += new_voice

        # Voice grants take one slot each and are built column-wise.
        n = len(voice_ids)
        if self.modem.is_adaptive and (voice_ids or data_rows):
            per_slot_arr, throughput_arr = self.grant_capacity_columns(
                voice_ids + [pool[row] for row in data_rows], snapshot
            )
            per_slot = per_slot_arr.tolist()
            throughputs = throughput_arr.tolist()
            grants = GrantColumns(
                voice_ids, [1] * n, per_slot[:n], throughputs[:n]
            )
        else:
            per_slot = throughputs = None
            grants = GrantColumns(voice_ids, [1] * n, [1] * n, [None] * n)
        # Data grants: enough slots to drain the buffer, bounded.
        for position, row in enumerate(data_rows, n):
            if slots_left < 1:
                unserved.append(row)
                continue
            tid = pool[row]
            if per_slot is None:
                packets, throughput = 1, None
            else:
                packets = per_slot[position]
                throughput = throughputs[position]
            needed = -(-int(occupancy[tid]) // max(1, packets))
            n_slots = needed if needed < slots_left else slots_left
            if data_cap is not None and n_slots > data_cap:
                n_slots = data_cap
            grants.append(tid, n_slots, packets * n_slots, throughput)
            slots_left -= n_slots
        return grants, new_voice, unserved

    def requeue(
        self,
        frame_index: int,
        population,
        backlog: Optional[QueuedRequests],
        winner_ids: Sequence[int],
        rows: Sequence[int],
    ) -> int:
        """Push unserved rows of the pool ``backlog + winner_ids`` back.

        Rows are pushed in the given order.  A backlog row keeps its
        arrival frame, deadline and CSI estimate; a winner's request
        arrives this frame with its head-of-line voice deadline.  Returns
        how many rows the queue accepted (a full queue accepts a prefix);
        without a queue the rows are dropped.
        """
        queue = self.request_queue
        if queue is None or not rows:
            return 0
        n_backlog = len(backlog.terminal_ids) if backlog is not None else 0
        accepted = 0
        for row in rows:
            if row < n_backlog:
                pushed = queue.push(*backlog.row(row))
            else:
                tid = winner_ids[row - n_backlog]
                pushed = queue.push(
                    tid, frame_index,
                    self.voice_deadline(population, tid, frame_index),
                )
            if not pushed:
                break
            accepted += 1
        return accepted

    # ------------------------------------------------------------ metadata
    def describe(self) -> dict:
        """Summary row used in result tables and documentation."""
        return {
            "name": self.name,
            "display_name": self.display_name,
            "adaptive_phy": self.uses_adaptive_phy,
            "csi_scheduling": self.uses_csi_scheduling,
            "request_queue": self.use_request_queue,
            "frame": self.frame_structure.describe(),
        }
