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
3. *Allocation phase*: all pending requests are ranked by the priority
   metric (equation (2)) and the ``N_i`` information slots are granted by the
   CSI-ranked allocator.  Voice requests that get served acquire a
   reservation — the base station auto-generates their subsequent per-period
   requests until the talkspurt ends.
4. Requests that survived contention but obtained no slots are stored in the
   base-station request queue (with-queue variant) or discarded so the
   device contends again (without-queue variant).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.channel.manager import ChannelSnapshot
from repro.config import SimulationParameters
from repro.core.allocator import CSIRankedAllocator
from repro.core.csi_polling import CSIPoller
from repro.core.priority import PriorityCalculator
from repro.mac.base import MACProtocol, traced_batch
from repro.mac.contention import run_contention_ids
from repro.mac.frames import FrameStructure
from repro.mac.requests import Acknowledgement, FrameOutcome, RequestColumns
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
    #: Every CHARISMA frame draws CSI noise and ranks its pending pool, so
    #: the macro runner cannot use the generic holder-serve frame; when the
    #: instance supports lookahead (fast mode + dedicated CSI stream, see
    #: ``__init__``) it dispatches to the runner's inline CSI-scheduled
    #: frame with block-pooled estimation noise instead.
    macro_contention_style = "csi_schedule"

    def __init__(
        self,
        params: SimulationParameters,
        modem: AdaptiveModem,
        rng: np.random.Generator,
        use_request_queue: bool = False,
        csi_estimator: Optional[CSIEstimator] = None,
        enable_csi_polling: bool = True,
        rng_mode: str = "parity",
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
            rng_mode=rng_mode,
            contention_rng=contention_rng,
        )
        # Fast mode draws estimation noise from a dedicated child stream
        # (``csi_rng``) so the macro engine can prefetch a whole block of
        # standard normals and roll unconsumed draws back without touching
        # the shared MAC stream.  Parity mode keeps the shared ``rng`` —
        # the parity draw order — and therefore falls back to the per-frame
        # kernel inside macro blocks (bit-identity).
        use_csi_stream = self.rng_fast and csi_rng is not None
        self.csi_estimator = csi_estimator or CSIEstimator(
            n_pilot_symbols=params.pilot_symbols_per_request,
            mean_snr_db=params.mean_snr_db,
            validity_frames=params.csi_validity_frames,
            rng=csi_rng if use_csi_stream else rng,
        )
        self.supports_macro_lookahead = bool(
            csi_estimator is None and use_csi_stream
        )
        self.priority_calculator = PriorityCalculator(params.priority, modem)
        self.allocator = CSIRankedAllocator(modem, params.n_info_slots)
        self.enable_csi_polling = bool(enable_csi_polling)
        self.csi_poller = CSIPoller(self.csi_estimator, params.n_pilot_slots)

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

    @traced_batch
    def run_frame_batch(
        self,
        frame_index: int,
        population,
        snapshot: ChannelSnapshot,
    ) -> FrameOutcome:
        """Gather every request of the frame, then rank and allocate.

        Contention resolves over id arrays, CSI estimation returns amplitude
        columns, the priority metric and the mode lookup evaluate over the
        pooled :class:`RequestColumns`, and the ranked allocation walk emits
        grant columns — the only per-request Python objects are the
        acknowledgements and any leftovers re-entering the request queue.
        """
        self.reservations.release_ended_population(population)
        self.prune_queue_batch(frame_index, population)
        outcome = FrameOutcome(frame_index)
        grants = outcome.use_grant_columns()
        validity = self.csi_estimator.validity_frames

        # ----------------------------------------------------- request phase
        ids, probabilities = self.contention_candidate_ids(population)
        contention = run_contention_ids(
            ids,
            probabilities,
            self.frame_structure.request_minislots,
            self.contention_rng,
            fast=self.rng_fast,
        )
        outcome.contention_attempts = contention.attempts
        outcome.contention_collisions = contention.collisions
        outcome.idle_request_slots = contention.idle_slots

        winner_ids = np.asarray(contention.winner_ids, dtype=np.int64)
        acknowledgements = outcome.acknowledgements
        for slot, winner in enumerate(contention.winner_ids):
            acknowledgements.append(Acknowledgement(winner, slot, frame_index))

        # CSI estimation: the winners' pilot symbols plus the auto-polled
        # reservation holders (their ongoing per-period transmissions double
        # as pilots).  Parity mode draws for the winners, then for the
        # holders; fast mode folds both groups into one batched draw.
        reserved = self.reservations.reserved_ids(population)
        amplitude = snapshot.amplitude
        if self.rng_fast:
            estimates = self.csi_estimator.estimate_amplitudes(
                amplitude[np.concatenate([reserved, winner_ids])], frame_index
            )
        else:
            winner_estimates = self.csi_estimator.estimate_amplitudes(
                amplitude[winner_ids], frame_index
            )
            reserved_estimates = self.csi_estimator.estimate_amplitudes(
                amplitude[reserved], frame_index
            )
            estimates = np.concatenate([reserved_estimates, winner_estimates])
        base_columns = self._pending_columns(
            population, reserved, winner_ids, estimates, frame_index
        )

        # Backlog from previous frames (with-queue variant only).
        backlog = (
            self.request_queue.pop_all() if self.request_queue is not None else []
        )
        if backlog:
            backlog_columns = RequestColumns.from_requests(
                backlog, csi_validity=validity
            )
            self._refresh_voice_deadline_columns(
                backlog_columns, population, frame_index
            )
            if self.enable_csi_polling:
                # The backlog priorities exist only to rank the polling
                # short list, so they are evaluated lazily: not at all when
                # no estimate is stale, and skipped for a single stale row
                # (a one-element sort is order-preserving).  Decision- and
                # draw-identical to the unconditional evaluation.
                stale = self.csi_poller.stale_rows(backlog_columns, frame_index)
                if stale.shape[0]:
                    backlog_priorities = (
                        self.priority_calculator.priorities_columns(
                            backlog_columns, frame_index
                        )
                        if stale.shape[0] > 1
                        else None
                    )
                    self.csi_poller.refresh_columns(
                        backlog_columns,
                        snapshot,
                        frame_index,
                        backlog_priorities,
                        stale=stale,
                    )
            pending = RequestColumns.concatenate(
                [base_columns, backlog_columns]
            )
        else:
            pending = base_columns

        # -------------------------------------------------- allocation phase
        # One amplitude-to-mode conversion feeds both the priority metric's
        # channel term (f(CSI), 0 when unknown) and the allocator's capacity
        # columns (packets 0 marks outage; unknown falls back to the most
        # robust mode) — the two phases share the frame's mode lookup.
        table = self.modem.mode_table
        amplitudes = pending.csi_amplitudes
        known = ~np.isnan(amplitudes)
        all_known = known.all()
        n_pending = len(pending)
        if all_known:
            indices_p1 = self.modem.mode_index(amplitudes) + 1
        else:
            # Unknown estimates sit on LUT row 1 (the most robust mode) —
            # the allocator's fallback; their priority channel term is
            # masked to 0 below.
            indices_p1 = np.ones(n_pending, dtype=np.int64)
            if known.any():
                indices_p1[known] = self.modem.mode_index(amplitudes[known]) + 1
        throughput = table.throughput_by_mode_index[indices_p1]
        per_slot = table.packets_by_mode_index[indices_p1]
        channel = throughput if all_known else np.where(known, throughput, 0.0)
        values = self.priority_calculator.priorities_columns(
            pending, frame_index, channel=channel
        )
        order = np.argsort(-values, kind="stable")
        unserved_rows, deferred_rows = self.allocator.allocate_columns(
            pending,
            order,
            population,
            frame_index,
            grants,
            per_slot=per_slot,
            throughput=throughput,
        )

        # Newly served voice requests acquire a reservation.  Only the rows
        # after the reservation-holder prefix can be "newly served", so the
        # scan skips the prefix outright.
        if grants.terminal_ids and len(pending) > reserved.shape[0]:
            allocated_ids = set(grants.terminal_ids)
            n_reserved = reserved.shape[0]
            self.reservations.grant_many(
                (
                    tid
                    for tid, voice in zip(
                        pending.terminal_ids[n_reserved:].tolist(),
                        pending.is_voice[n_reserved:].tolist(),
                    )
                    if voice and tid in allocated_ids
                ),
                frame_index,
            )

        # Unserved / deferred requests go back to the queue (or are dropped).
        self.queue_unserved_rows(pending, unserved_rows + deferred_rows)
        outcome.queued_requests = self.queued_count()
        return outcome

    def _pending_columns(
        self,
        population,
        reserved: np.ndarray,
        winner_ids: np.ndarray,
        csi_amplitudes: np.ndarray,
        frame_index: int,
    ) -> RequestColumns:
        """Fused request columns for the frame's reservations + winners.

        One pass over the concatenated id array (reservation holders first,
        matching the pending pool's priority-phase order) instead of two
        :meth:`request_columns_for` calls and a concatenate; row-for-row
        identical to building the parts separately.
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
        is_reservation = np.zeros(n, dtype=bool)
        is_reservation[: reserved.shape[0]] = True
        return RequestColumns(
            terminal_ids=terminal_ids,
            is_voice=is_voice,
            arrival_frames=np.full(n, frame_index, dtype=np.int64),
            desired_packets=np.maximum(1, population.occupancy[terminal_ids]),
            deadline_frames=deadline,
            is_reservation=is_reservation,
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
