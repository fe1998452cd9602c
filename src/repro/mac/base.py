"""Abstract base class and shared machinery for uplink MAC protocols.

Every protocol in the study — the five baselines and CHARISMA — is a
:class:`MACProtocol`.  The simulation engine drives it with one call per
2.5 ms TDMA frame::

    outcome = protocol.run_frame_batch(frame_index, population, channel_snapshot)

where ``population`` is the cell's
:class:`~repro.traffic.population.TerminalPopulation`.  The protocol reads
the population arrays, reads the channel of only the terminals it serves
through the snapshot's ``read``/``gather`` methods, and emits the frame's
grants as
:class:`~repro.mac.requests.GrantColumns` on the returned
:class:`~repro.mac.requests.FrameOutcome`; the engine then transmits them
through the PHY error model.  The base class provides the machinery all
protocols share:

* permission-probability gated contention candidates (as id arrays),
* the voice reservation table ("a slot every 20 ms until the talkspurt
  ends"),
* the optional base-station request queue,
* columnar request pools and FCFS service over them,
* translation of a channel state into an information-slot packet capacity
  via the protocol's modem (adaptive or fixed-rate).
"""

from __future__ import annotations

import abc
import functools
import math
from typing import ClassVar, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.lint.contracts import kernel
from repro.obs import trace as _obs_trace
from repro.mac.frames import FrameStructure
from repro.mac.request_queue import RequestQueue
from repro.mac.requests import (
    FrameOutcome,
    GrantColumns,
    Request,
    RequestColumns,
)
from repro.mac.reservation import ReservationTable
from repro.phy.abicm import AdaptiveModem
from repro.phy.fixed import FixedRateModem
from repro.traffic.packets import TrafficKind
from repro.traffic.permission import PermissionPolicy

__all__ = ["MACProtocol", "Modem", "traced_batch"]

Modem = Union[AdaptiveModem, FixedRateModem]


def traced_batch(run_frame_batch):
    """Wrap a ``run_frame_batch`` entry in a ``mac.<name>.batch`` span.

    Applied to every shipped protocol's kernel, so a trace attributes each
    frame's MAC phase to the protocol that ran it (nested under the
    engine's ``phase.mac`` span).  Costs one module attribute check per
    frame when no tracer is installed.
    """

    @functools.wraps(run_frame_batch)
    def traced(self, frame_index, population, snapshot):
        tracer = _obs_trace.TRACER
        if tracer is None:
            return run_frame_batch(self, frame_index, population, snapshot)
        with tracer.span(f"mac.{self.name}.batch", frame=frame_index):
            return run_frame_batch(self, frame_index, population, snapshot)

    return traced


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
    rng_mode:
        ``"parity"`` (default) draws every stochastic decision in a fixed
        scalar order (the order the golden baselines in ``tests/golden``
        pin).  ``"fast"`` lets the kernels batch a frame's draws into single
        calls against a dedicated contention child stream — statistically
        equivalent, not bit-identical.
    contention_rng:
        The independent child stream fast mode draws contention from
        (see :meth:`repro.sim.rng.RandomStreams.child`); derived from
        ``rng`` when omitted.  Unused in parity mode.
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
    #: Whether the macro-stepped engine may execute this protocol's frames
    #: inline (reservation lookahead).  Requires that a frame with an empty
    #: request queue draws randomness only through streams the macro engine
    #: can pool or replay exactly — contention draws, or (CHARISMA, fast
    #: mode only) CSI estimation noise from a dedicated child stream.
    #: Usually a class attribute; protocols whose eligibility depends on
    #: construction (CHARISMA needs ``rng_mode="fast"`` plus an injected
    #: CSI stream) override it per instance, which is why it is a plain
    #: ``bool`` rather than a ``ClassVar``.
    supports_macro_lookahead: bool = False
    #: How the macro runner executes a frame when the protocol has no
    #: fixed request subframe (``macro_minislots() is None``):
    #: ``"auction"`` keeps the generic holder-serve frame with RAMA's
    #: ``run_auction`` as its request phase, ``"slot_loop"`` runs DRMA's
    #: interleaved serve/convert slot loop with pool-fed minislot draws
    #: (winners re-enter the same frame's pending pool), and ``None`` falls
    #: back to the per-frame kernel.  ``"csi_schedule"`` (CHARISMA) has its
    #: own inline frame: every frame draws CSI noise and ranks its pending
    #: pool, so the runner runs contention, pooled estimation noise, mode
    #: lookup, priority ranking and the ranked allocation walk instead of
    #: the holder-serve path.
    macro_contention_style: ClassVar[Optional[str]] = None

    def __init__(
        self,
        params: SimulationParameters,
        modem: Modem,
        rng: np.random.Generator,
        use_request_queue: bool = False,
        rng_mode: str = "parity",
        contention_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if rng_mode not in ("parity", "fast"):
            raise ValueError(f"rng_mode must be 'parity' or 'fast', got {rng_mode!r}")
        self.params = params
        self.modem = modem
        self.rng = rng
        self.rng_mode = rng_mode
        self.rng_fast = rng_mode == "fast"
        if self.rng_fast and contention_rng is None:
            contention_rng = rng.spawn(1)[0]
        #: Stream contention draws come from: the shared MAC stream in
        #: parity mode (scalar call order preserved), a dedicated child in
        #: fast mode (whole-frame batched draws).
        self.contention_rng = contention_rng if self.rng_fast else rng
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
        self._probability_template: Optional[np.ndarray] = None

    # ----------------------------------------------------------- interface
    @abc.abstractmethod
    def _build_frame_structure(self) -> FrameStructure:
        """Return the protocol's uplink frame layout."""

    @abc.abstractmethod
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Run the request and allocation phases of one frame.

        Reads the :class:`~repro.traffic.population.TerminalPopulation`
        arrays and emits the grants through
        :meth:`FrameOutcome.use_grant_columns`, never materialising a
        per-terminal object in the hot loop.  Implementations are wrapped
        in :func:`traced_batch`.
        """

    # ------------------------------------------------------------- helpers
    def slot_capacity(self, amplitude: float) -> Tuple[int, Optional[float]]:
        """Packets one information slot carries at the given channel state.

        Returns ``(packets, throughput)`` where ``throughput`` is the
        announced transmission mode (``None`` on the fixed-rate PHY).  On the
        adaptive PHY an outage channel still yields a capacity of one packet
        at the most robust mode — transmitting is allowed, it is just likely
        to fail — because the non-CSI-aware protocols (D-TDMA/VR) do exactly
        that.  CSI-aware allocation (CHARISMA) avoids granting such slots in
        the first place.
        """
        if not self.modem.is_adaptive:
            return 1, None
        mode = self.modem.select_mode(float(amplitude))
        if mode is None:
            lowest = self.modem.mode_table[0]
            return 1, lowest.throughput
        return mode.packets_per_slot(self.modem.mode_table.reference_throughput), mode.throughput

    def grant_capacity(
        self, terminal_id: int, snapshot: ChannelSnapshot
    ) -> Tuple[int, Optional[float]]:
        """:meth:`slot_capacity` of one terminal's channel in this frame.

        The channel is read only on the adaptive PHY, where the capacity
        depends on it; a fixed-rate grant is read once, when it transmits.
        In fast RNG mode a read advances the terminal's lazy channel, so
        every frame path then reads the channel in grant order.
        """
        if not self.modem.is_adaptive:
            return 1, None
        return self.slot_capacity(snapshot.read(terminal_id))

    def queue_unserved(self, requests: Sequence[Request]) -> int:
        """Store unserved requests in the base-station queue, if enabled."""
        if self.request_queue is None:
            return 0
        return self.request_queue.extend(
            r for r in requests if not r.is_reservation
        )

    def queued_count(self) -> int:
        """Number of requests currently queued at the base station."""
        return len(self.request_queue) if self.request_queue is not None else 0

    # ------------------------------------------------- array-native kernels
    def contention_candidate_ids(
        self, population
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Terminals that would transmit a request this frame.

        * a voice terminal contends while it is in a talkspurt, has packets
          buffered and holds no reservation;
        * a data terminal contends while it has packets buffered;
        * terminals whose earlier request is still queued at the base station
          do not contend again (they are waiting for the announcement).

        Returns ``(ids, probabilities)``: the candidate terminal ids in
        ascending order aligned with each candidate's permission
        probability — ready for :func:`~repro.mac.contention.run_contention_ids`.
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
        ids = mask.nonzero()[0]
        # Per-terminal permission probabilities are static (the service
        # class never changes), so the full-population template is built
        # once and gathered per frame.
        template = self._probability_template
        if template is None or template.shape[0] != len(population):
            template = np.where(
                population.is_voice,
                self.permission.voice_probability,
                self.permission.data_probability,
            )
            self._probability_template = template
        return ids, template[ids]

    def request_columns_for(
        self,
        population,
        ids: np.ndarray,
        frame_index: int,
        is_reservation: bool = False,
        csi_amplitudes: Optional[np.ndarray] = None,
        csi_validity: int = 2,
    ) -> RequestColumns:
        """Base-station request records for many terminals at once.

        Row-for-row equivalent to calling :meth:`make_request_for_id` per id
        in order: the voice deadline is the current head-of-line packet's,
        the desired packet count is the buffer occupancy (at least one).
        """
        ids = np.asarray(ids, dtype=np.int64)
        n = ids.shape[0]
        is_voice = population.is_voice[ids]
        head = population.head_created[ids]
        deadline = np.full(n, -1, dtype=np.int64)
        has_deadline = is_voice & (head >= 0)
        if has_deadline.any():
            remaining = np.maximum(
                0, head + self.params.voice_deadline_frames - frame_index
            )
            deadline[has_deadline] = frame_index + remaining[has_deadline]
        return RequestColumns(
            terminal_ids=ids,
            is_voice=is_voice,
            arrival_frames=np.full(n, frame_index, dtype=np.int64),
            desired_packets=np.maximum(1, population.occupancy[ids]),
            deadline_frames=deadline,
            is_reservation=np.full(n, bool(is_reservation)),
            csi_amplitudes=csi_amplitudes,
            csi_frames=(
                np.full(n, frame_index, dtype=np.int64)
                if csi_amplitudes is not None
                else None
            ),
            csi_validity=csi_validity,
        )

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
        carries one packet per slot at the nominal mode).  Element-for-
        element identical to :meth:`slot_capacity` on the same channel
        states, including the outage fallback.
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

    def allocate_reserved_voice_batch(
        self,
        population,
        snapshot: ChannelSnapshot,
        slots_available: int,
        grants: GrantColumns,
    ) -> np.ndarray:
        """Serve reservation-holding voice terminals first (one slot each).

        This is the behaviour of every baseline protocol: a reserved voice
        user owns a slot per voice-packet period, independent of its channel
        state.  Returns the served ids.
        """
        reserved = self.reservations.reserved_ids(population)
        if not reserved.shape[0]:
            return reserved
        served = reserved[: max(0, slots_available)]
        per_slot, throughputs = self.grant_capacity_columns(served, snapshot)
        append = grants.append
        if throughputs is None:
            for tid in served.tolist():
                append(tid, 1, 1, None)
        else:
            for tid, packets, throughput in zip(
                served.tolist(), per_slot.tolist(), throughputs.tolist()
            ):
                append(tid, 1, packets, throughput)
        return served

    def prune_queue_batch(self, frame_index: int, population) -> None:
        """Drop queued requests that are no longer actionable.

        Expired voice requests are discarded (their packets have been dropped
        at the device); requests of terminals whose buffer has emptied (e.g.
        the talkspurt ended or the burst was already served) are removed.
        """
        if self.request_queue is None:
            return
        self.request_queue.drop_expired(frame_index)
        occupancy = population.occupancy
        n = len(population)
        for request in list(self.request_queue):
            tid = request.terminal_id
            if tid >= n or occupancy[tid] == 0:
                self.request_queue.remove_terminal(tid)

    def queue_unserved_rows(
        self, columns: RequestColumns, rows: Sequence[int]
    ) -> int:
        """Queue the given (non-reservation) rows of a request-column pool."""
        if self.request_queue is None or not len(rows):
            return 0
        keep = [row for row in rows if not columns.is_reservation[row]]
        if not keep:
            return 0
        return self.request_queue.extend(columns.to_requests(keep))

    def make_request_for_id(
        self,
        population,
        terminal_id: int,
        frame_index: int,
        is_reservation: bool = False,
    ) -> Request:
        """Build the base-station record of one terminal's request."""
        terminal_id = int(terminal_id)
        deadline = None
        if population.is_voice[terminal_id]:
            head = int(population.head_created[terminal_id])
            if head >= 0:
                deadline = frame_index + max(
                    0, head + self.params.voice_deadline_frames - frame_index
                )
        return Request(
            terminal_id=terminal_id,
            kind=(
                TrafficKind.VOICE
                if population.is_voice[terminal_id]
                else TrafficKind.DATA
            ),
            arrival_frame=frame_index,
            desired_packets=max(1, int(population.occupancy[terminal_id])),
            deadline_frame=deadline,
            is_reservation=is_reservation,
        )

    def _serve_voice_rows_batch(
        self,
        pending: RequestColumns,
        rows: np.ndarray,
        population,
        snapshot: ChannelSnapshot,
        frame_index: int,
        slots_left: int,
        grants: GrantColumns,
        unserved_rows: List[int],
    ) -> int:
        """FCFS voice service over column rows (one slot each, reservation).

        Rows whose terminal has drained its buffer are skipped outright, the
        first ``slots_left`` remaining rows are granted one slot each
        (acquiring a reservation), and the rest land in ``unserved_rows``.
        """
        if not rows.shape[0]:
            return slots_left
        tids = pending.terminal_ids[rows]
        live = population.occupancy[tids] > 0
        if not live.all():
            rows = rows[live]
            tids = tids[live]
            if not rows.shape[0]:
                return slots_left
        n_served = max(0, min(slots_left, tids.shape[0]))
        served = tids[:n_served]
        per_slot, throughputs = self.grant_capacity_columns(served, snapshot)
        append = grants.append
        if throughputs is None:
            for tid in served.tolist():
                append(tid, 1, 1, None)
        else:
            for tid, packets, throughput in zip(
                served.tolist(), per_slot.tolist(), throughputs.tolist()
            ):
                append(tid, 1, packets, throughput)
        self.reservations.grant_many(served, frame_index)
        unserved_rows.extend(rows[n_served:].tolist())
        return slots_left - n_served

    def _serve_data_rows_batch(
        self,
        pending: RequestColumns,
        rows: np.ndarray,
        population,
        snapshot: ChannelSnapshot,
        slots_left: int,
        grants: GrantColumns,
        unserved_rows: List[int],
    ) -> int:
        """FCFS data service over column rows (buffer-draining grants).

        Each live row gets enough slots to drain its buffer at its channel's
        packets-per-slot, bounded by what remains; once the frame is full
        the remaining rows become unserved.
        """
        if not rows.shape[0]:
            return slots_left
        tids = pending.terminal_ids[rows]
        occupancy = population.occupancy[tids]
        live = occupancy > 0
        if not live.all():
            rows = rows[live]
            tids = tids[live]
            occupancy = occupancy[live]
            if not rows.shape[0]:
                return slots_left
        per_slot, throughputs = self.grant_capacity_columns(tids, snapshot)
        tid_list = tids.tolist()
        occ_list = occupancy.tolist()
        per_list = per_slot.tolist()
        thr_list = throughputs.tolist() if throughputs is not None else None
        row_list = rows.tolist()
        append = grants.append
        for position, tid in enumerate(tid_list):
            if slots_left < 1:
                unserved_rows.append(row_list[position])
                continue
            packets = per_list[position]
            needed = math.ceil(occ_list[position] / max(1, packets))
            n_slots = max(1, min(slots_left, needed))
            append(
                tid,
                n_slots,
                packets * n_slots,
                thr_list[position] if thr_list is not None else None,
            )
            slots_left -= n_slots
        return slots_left

    # ------------------------------------------------- macro-step lookahead
    def macro_minislots(self) -> Optional[int]:
        """Request minislots the macro engine may resolve inline per frame.

        The slotted-ALOHA FCFS protocols return their request subframe
        size: the inline frame resolves it with the same
        :func:`~repro.mac.contention.run_contention_ids` call as their
        ``run_frame_batch``.  ``None`` (default) leaves the frame to
        :attr:`macro_contention_style`.
        """
        return None

    def macro_data_slot_cap(self) -> Optional[int]:
        """Upper bound on one data grant's slots (``None`` = frame-limited)."""
        return None

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
