"""CHARISMA: CHannel Adaptive Reservation-based ISochronous Multiple Access.

This is the paper's proposed protocol (Section 4).  It is a dynamic-TDMA
protocol whose distinctive feature is that the base station *first gathers*
all contention requests of the frame (plus the backlog and the auto-generated
requests of voice reservation holders) and only *then* assigns the
information slots — ranked by a priority metric that combines each request's
estimated CSI (through the throughput the adaptive PHY would deliver), its
deadline or waiting time, and its service class.  Users in deep fades are
deferred while their deadlines allow, so information slots are never spent on
transmissions that the channel would almost certainly destroy; users close to
their deadline are served regardless, for fairness.

Frame procedure (uplink, Fig. 4a / Section 4.3)
-----------------------------------------------
1. *Request phase*: contention in ``N_r`` minislots, gated by the permission
   probabilities; each successful request carries pilot symbols from which
   the base station estimates the sender's CSI.
2. *CSI polling*: up to ``N_b`` backlogged requests with stale estimates are
   polled and their CSI refreshed (Section 4.4).
3. *Slot allocation*: all pending requests are ranked by the priority
   metric (equation (2)) and the ``N_i`` information slots are granted by the
   CSI-ranked allocator.  Voice requests that get served acquire a
   reservation — the base station auto-generates their subsequent per-period
   requests until the talkspurt ends.
4. Requests that survived contention but obtained no slots are stored in the
   base-station request queue (with-queue variant) or discarded so the
   device contends again (without-queue variant).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.core.allocator import CSIRankedAllocator
from repro.core.csi_polling import CSIPoller
from repro.core.priority import PriorityCalculator
from repro.lint.contracts import kernel
from repro.mac.base import MACProtocol
from repro.mac.contention import IndexContentionResult
from repro.mac.frames import FrameStructure
from repro.mac.request_queue import QueuedRequests
from repro.mac.requests import GrantColumns, RequestColumns
from repro.phy.abicm import AdaptiveModem
from repro.phy.csi import CSIEstimator

__all__ = ["CharismaProtocol"]


class CharismaProtocol(MACProtocol):
    """The channel-adaptive, CSI-scheduled uplink access protocol."""

    name = "charisma"
    display_name = "CHARISMA"
    uses_adaptive_phy = True
    uses_csi_scheduling = True
    supports_request_queue = True

    def __init__(
        self,
        params: SimulationParameters,
        modem: AdaptiveModem,
        rng: np.random.Generator,
        use_request_queue: bool = False,
        csi_estimator: Optional[CSIEstimator] = None,
        enable_csi_polling: bool = True,
        contention_rng: Optional[np.random.Generator] = None,
        csi_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not modem.is_adaptive:
            raise ValueError("CHARISMA requires the adaptive physical layer")
        super().__init__(
            params,
            modem,
            rng,
            use_request_queue=use_request_queue,
            contention_rng=contention_rng,
        )
        # Fast mode draws estimation noise from a dedicated child stream
        # (``csi_rng``), which the macro runner pools a block of standard
        # normals from.  Without one the estimator shares ``rng`` and its
        # per-frame draw order (winners, then holders, then polls).
        self.csi_estimator = csi_estimator or CSIEstimator(
            n_pilot_symbols=params.pilot_symbols_per_request,
            mean_snr_db=params.mean_snr_db,
            validity_frames=params.csi_validity_frames,
            rng=rng if csi_rng is None else csi_rng,
        )
        self.priority_calculator = PriorityCalculator(params.priority, modem)
        self.allocator = CSIRankedAllocator(modem, params.n_info_slots)
        self.enable_csi_polling = bool(enable_csi_polling)
        self.csi_poller = CSIPoller(self.csi_estimator, params.n_pilot_slots)
        # Constants the frame's inline mode lookup and priority metric fold
        # over (see :meth:`run_frame`).
        table = modem.mode_table
        self._thresholds_db = table.thresholds_db
        self._throughput_by_row = table.throughput_by_mode_index
        self._packets_by_row = table.packets_by_mode_index
        weights = self.priority_calculator.weights
        self._deadline_frames = int(params.voice_deadline_frames)
        # pow(beta, h) over the reachable integer horizons, premultiplied
        # by the urgency weight — element-for-element the floats
        # ``priorities_columns`` computes, looked up instead of
        # re-exponentiated every frame.
        self._urgency_lut = weights.urgency_weight_voice * np.power(
            weights.beta_voice,
            np.arange(self._deadline_frames + 1, dtype=float),
        )
        self._alpha = (weights.alpha_voice, weights.alpha_data)
        self._voice_offset = weights.voice_offset

    # ------------------------------------------------------------ interface
    def _build_frame_structure(self) -> FrameStructure:
        return FrameStructure(
            name=self.display_name,
            request_minislots=self.params.n_request_slots,
            info_slots=self.params.n_info_slots,
            pilot_minislots=self.params.n_pilot_slots,
            dynamic=False,
            minislots_per_info_slot=self.params.drma_minislots_per_info_slot,
        )

    @kernel
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
        """Gather every request of the frame, then rank and allocate.

        The request phase is slotted contention over the ``N_r`` request
        minislots (:meth:`~repro.mac.base.MACProtocol.request_phase`).  The
        winners' requests and the holders' auto-generated ones carry CSI
        estimates from ``draws.estimate``: in fast RNG mode one draw over
        holders then winners, on normals the block pools from the
        estimator's stream; in parity mode the estimator's own calls,
        winners then holders.  Polling refreshes the backlog's stale
        estimates after them (:meth:`backlog_columns`).  The mode lookup
        and the priority metric then rank the pool and
        :meth:`~repro.core.allocator.CSIRankedAllocator.allocate` walks the
        ranking; unserved and deferred requests go back to the queue.  The
        arguments and the returned triple are
        :meth:`~repro.mac.base.MACProtocol.run_frame`'s.
        """
        request = self.request_phase(candidate_ids, population.n_voice)
        winner_ids = request.winner_ids
        grants = GrantColumns()
        n_reserved = len(holders)
        all_ids = holders + winner_ids if winner_ids else holders
        if not all_ids and backlog is None:
            return request, grants, []

        estimate = draws.estimate
        if self.rng_fast:
            estimates = estimate(snapshot.gather(all_ids), frame_index)
        else:
            winner_estimates = estimate(snapshot.gather(winner_ids), frame_index)
            estimates = np.concatenate([
                estimate(snapshot.gather(holders), frame_index),
                winner_estimates,
            ])

        # Mode lookup, inline: ``searchsorted(thresholds) - 1`` is the mode
        # index and the capacity LUTs are addressed at ``index + 1``, so the
        # raw searchsorted count is itself the LUT row.  Estimates of 0.0
        # (clamped noise) log to -inf and land on the outage row.
        with np.errstate(divide="ignore"):
            snr_db = self.modem.mean_snr_db + 20.0 * np.log10(estimates)
        rows = np.searchsorted(self._thresholds_db, snr_db, side="right")
        throughput = self._throughput_by_row[rows]
        packets = self._packets_by_row[rows]

        # Priority metric, inline over the same gathers: every row arrived
        # this frame, so the data urgency term is exactly 0 and the voice
        # horizon is the head-of-line packet's frames-to-deadline — an
        # integer in [0, deadline], served from the pow() LUT.  The
        # term-by-term composition (weighted + urgency + offset) matches
        # ``priorities_columns`` float for float.
        tid_arr = np.asarray(all_ids, dtype=np.int64)
        voice = tid_arr < population.n_voice
        horizon = np.maximum(
            0,
            population.head_created[tid_arr]
            + (self._deadline_frames - frame_index),
        )
        urgency = np.where(voice, self._urgency_lut[horizon], 0.0)
        alpha_voice, alpha_data = self._alpha
        if alpha_voice == alpha_data:
            weighted = alpha_voice * throughput
        else:
            weighted = np.where(voice, alpha_voice, alpha_data) * throughput
        values = weighted + urgency + np.where(voice, self._voice_offset, 0.0)
        deadlines = np.where(voice, horizon + frame_index, -1)

        queued = None
        if backlog is not None:
            # Queued rows have waited, so their data urgency is not 0: they
            # rank by the full priority metric.
            queued = self.backlog_columns(
                backlog, population, snapshot, frame_index, estimate=estimate
            )
            queued_packets, queued_throughput, channel = (
                self.allocator.mode_columns(queued.csi_amplitudes)
            )
            values = np.concatenate([
                values,
                self.priority_calculator.priorities_columns(
                    queued, frame_index, channel=channel
                ),
            ])
            all_ids = all_ids + queued.terminal_ids.tolist()
            deadlines = np.concatenate([deadlines, queued.deadline_frames])
            packets = np.concatenate([packets, queued_packets])
            throughput = np.concatenate([throughput, queued_throughput])

        new_voice, unserved, deferred = self.allocator.allocate(
            np.argsort(-values, kind="stable").tolist(),
            all_ids,
            deadlines.tolist(),
            packets.tolist(),
            throughput.tolist(),
            occupancy,
            population.n_voice,
            n_reserved,
            frame_index,
            grants,
        )
        # The frame's request columns are built only to re-queue: the
        # common all-served frame never needs them.
        if (unserved or deferred) and self.request_queue is not None:
            pending = self._pending_columns(
                population,
                np.asarray(holders, dtype=np.int64),
                np.asarray(winner_ids, dtype=np.int64),
                estimates,
                frame_index,
            )
            if queued is not None:
                pending = RequestColumns.concatenate([pending, queued])
            self.requeue_rows(pending, n_reserved, unserved + deferred)
        return request, grants, new_voice

    def backlog_columns(
        self,
        backlog: QueuedRequests,
        population,
        snapshot: ChannelSnapshot,
        frame_index: int,
        estimate: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
    ) -> RequestColumns:
        """The popped request backlog as request columns, ready to rank.

        Queued voice requests take their terminal's current deadline (see
        :meth:`_refresh_voice_deadline_columns`), and up to ``N_b`` stale
        CSI estimates are refreshed by polling (Section 4.4), short-listed
        by priority.  The polls draw their estimation noise through
        ``estimate`` (the estimator's own call by default) after the
        frame's holder and winner estimates, and read the channel after
        them too.
        """
        tids = np.asarray(backlog.terminal_ids, dtype=np.int64)
        columns = RequestColumns(
            terminal_ids=tids,
            is_voice=tids < population.n_voice,
            arrival_frames=np.asarray(backlog.arrival_frames, dtype=np.int64),
            deadline_frames=np.asarray(backlog.deadline_frames, dtype=np.int64),
            csi_amplitudes=np.asarray(backlog.csi_amplitudes, dtype=float),
            csi_frames=np.asarray(backlog.csi_frames, dtype=np.int64),
            csi_validity=self.csi_estimator.validity_frames,
        )
        self._refresh_voice_deadline_columns(columns, population, frame_index)
        if self.enable_csi_polling:
            # The backlog priorities exist only to rank the polling short
            # list, so they are evaluated lazily: not at all when no
            # estimate is stale, and skipped for a single stale row (a
            # one-element sort is order-preserving).
            stale = self.csi_poller.stale_rows(columns, frame_index)
            if stale.shape[0]:
                priorities = (
                    self.priority_calculator.priorities_columns(
                        columns, frame_index
                    )
                    if stale.shape[0] > 1
                    else None
                )
                self.csi_poller.refresh_columns(
                    columns, snapshot, frame_index, priorities,
                    stale=stale, estimate=estimate,
                )
        return columns

    def requeue_rows(
        self, pending: RequestColumns, n_reserved: int, rows: List[int]
    ) -> int:
        """Queue the given rows of a frame's pool, skipping holder rows.

        A re-queued row keeps its arrival frame, its (refreshed) deadline
        and its CSI estimate with the estimate's frame stamp.  Returns how
        many rows the queue accepted; without a queue the rows are dropped.
        """
        queue = self.request_queue
        if queue is None:
            return 0
        keep = [row for row in rows if row >= n_reserved]
        if not keep:
            return 0
        return queue.extend(zip(
            pending.terminal_ids[keep].tolist(),
            pending.arrival_frames[keep].tolist(),
            pending.deadline_frames[keep].tolist(),
            pending.csi_amplitudes[keep].tolist(),
            pending.csi_frames[keep].tolist(),
        ))

    def _pending_columns(
        self,
        population,
        reserved: np.ndarray,
        winner_ids: np.ndarray,
        csi_amplitudes: np.ndarray,
        frame_index: int,
    ) -> RequestColumns:
        """Request columns for the frame's reservations + winners.

        Reservation holders come first, the pending pool's order; every row
        arrives this frame with its CSI estimate and, for voice, its
        head-of-line packet's deadline.
        """
        terminal_ids = np.concatenate([reserved, winner_ids])
        n = terminal_ids.shape[0]
        is_voice = population.is_voice[terminal_ids]
        head = population.head_created[terminal_ids]
        deadline = np.where(
            is_voice & (head >= 0),
            frame_index
            + np.maximum(
                0, head + self.params.voice_deadline_frames - frame_index
            ),
            -1,
        )
        return RequestColumns(
            terminal_ids=terminal_ids,
            is_voice=is_voice,
            arrival_frames=np.full(n, frame_index, dtype=np.int64),
            deadline_frames=deadline,
            csi_amplitudes=csi_amplitudes,
            csi_frames=np.full(n, frame_index, dtype=np.int64),
            csi_validity=self.csi_estimator.validity_frames,
        )

    def _refresh_voice_deadline_columns(
        self, columns: RequestColumns, population, frame_index: int
    ) -> None:
        """Update backlogged voice requests to their terminal's current deadline.

        A queued voice request may outlive the packet it was originally made
        for (that packet could have been dropped and a new one generated);
        the priority metric must therefore look at the current head-of-line
        packet's deadline, not the stale one recorded at arrival time.
        Unknown terminal ids are masked before the gather (the fancy index
        would raise) and keep their recorded deadline.
        """
        tids = columns.terminal_ids
        known = tids < len(population)
        if not known.all():
            tids = np.where(known, tids, 0)
        heads = population.head_created[tids]
        refresh = columns.is_voice & known & (heads >= 0)
        if refresh.any():
            remaining = np.maximum(
                0, heads + self.params.voice_deadline_frames - frame_index
            )
            columns.deadline_frames[refresh] = (
                frame_index + remaining[refresh]
            )
