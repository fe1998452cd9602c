"""Macro-stepped execution of the columnar frame loop.

The per-frame columnar engine pays a fixed dispatch floor of ~25 small
NumPy kernel calls per 2.5 ms frame — traffic advance, channel snapshot,
candidate masks, contention draws, grant gathers, a PHY batch and metrics
bookkeeping.  :class:`MacroRunner` advances the simulation in blocks of
``Scenario.macro_frames`` frames instead, with O(1) dispatches per block
for the predictable work:

* **traffic** — :meth:`~repro.traffic.population.TerminalPopulation.plan_frames`
  pre-draws the whole block's source events in per-frame order and each
  frame replays its recorded events with a handful of scalar writes;
* **MAC state** — reservation holders and contention candidates are kept
  as incremental mirrors, updated from the frame's traffic, drop, grant and
  request-queue events instead of being re-derived from the population
  arrays;
* **reservation PHY** — voice-reservation transmissions pop their packets
  deterministically at their own frame (a transmitted voice packet leaves
  the buffer whether or not it is received), while the Bernoulli outcomes
  of many frames are drawn in one batched binomial call — again
  bit-exact, because batched binomials consume the error stream
  element-wise — and fold into the voice counters once per block;
* **metrics** — per-frame statistics accumulate in plain lists and cross
  the collector boundary once per block.

Each frame's request phase is the protocol's own rule:
:func:`~repro.mac.contention.run_contention_ids` for the slotted protocols
and CHARISMA, :meth:`~repro.mac.rama.RAMAProtocol.run_auction` for RAMA —
the calls their ``run_frame_batch`` makes, on the same streams.  Only
DRMA's converted slots resolve here, on draws served from a
:class:`RandomPool` prefetched from the contention stream (NumPy generators
consume their bit stream element by element, so a pool of ``N`` uniforms
is exactly the next ``N`` per-minislot draws; at a block's end the pool
rolls the generator back and replays the consumed prefix), and CHARISMA's
estimation noise comes from a :class:`NormalPool` the same way.

Each frame's allocation phase is the protocol's own function too —
:meth:`~repro.mac.base.MACProtocol.serve_fcfs`, DRMA's
:meth:`~repro.mac.drma.DRMAProtocol.serve_slots` or CHARISMA's
:meth:`~repro.core.allocator.CSIRankedAllocator.allocate` — so the inline
frame prunes, serves and re-queues the base-station request backlog
exactly like ``run_frame_batch``.  Only a protocol without lookahead
support (parity-mode CHARISMA draws CSI noise from the shared MAC stream)
falls back to its own ``run_frame_batch``, after flushing all deferred
state, so the surrounding frames still enjoy the fused
traffic/channel/metrics path.  In either RNG
mode the result does not depend on ``macro_frames``:
``tests/sim/test_macro_parity.py`` sweeps ``macro_frames`` in
{1, 4, 16, 64} over all six protocols in parity mode, and the golden
baselines in ``tests/golden`` pin ``macro_frames`` 1 and 64 of every cell
to one digest in both modes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Optional

import numpy as np

from repro.lint.contracts import kernel
from repro.mac.contention import run_contention_ids
from repro.mac.requests import GrantColumns, RequestColumns
from repro.obs import metrics as _metrics

__all__ = ["MacroRunner", "NormalPool", "RandomPool"]


class RandomPool:
    """Prefetched uniform draws with exact roll-back/replay.

    ``take(n)`` hands out the next ``n`` doubles of the generator's stream
    from a prefetched buffer; ``unwind(n)`` returns the most recent ``n``
    (a pure pointer move — nothing re-enters the generator); ``close()``
    restores the generator to the pre-prefetch state and re-consumes
    exactly the handed-out prefix, so after closing, the generator state is
    indistinguishable from having made the per-frame draws directly.
    """

    __slots__ = ("_rng", "_chunk", "_state", "_buffer", "_position", "_draw")

    def __init__(self, rng: np.random.Generator, chunk: int = 4096) -> None:
        self._rng = rng
        self._chunk = int(chunk)
        self._state = None
        self._buffer: Optional[np.ndarray] = None
        self._position = 0
        # The prefetch/replay primitive; subclasses pool other elementwise
        # distributions by swapping it (``standard_normal`` consumes the
        # bit stream element by element exactly like ``random`` does, so
        # the restore-and-redraw replay stays exact for either).
        self._draw = rng.random

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` stream doubles (a view into the prefetch buffer)."""
        buffer = self._buffer
        if buffer is None or self._position + n > buffer.shape[0]:
            self._refill(n)
            buffer = self._buffer
        start = self._position
        self._position = start + n
        return buffer[start : self._position]

    def unwind(self, n: int) -> None:
        """Give back the most recently taken ``n`` doubles (pointer move)."""
        self._position -= n

    def close(self) -> int:
        """Roll back and replay: leave the generator exactly where
        per-frame draws of the consumed prefix would have left it.

        Returns the number of prefetched-but-unconsumed doubles rolled
        back (0 when nothing was open), and counts each truncating close
        on the ``pool.replay_truncations`` metric.
        """
        buffer = self._buffer
        if buffer is None:
            return 0
        unused = buffer.shape[0] - self._position
        self._rng.bit_generator.state = self._state
        if self._position:
            self._draw(self._position)
        self._state = None
        self._buffer = None
        self._position = 0
        if unused:
            m = _metrics.METRICS
            if m.enabled:
                m.inc("pool.replay_truncations")
        return unused

    def _refill(self, n: int) -> None:
        self.close()
        self._state = self._rng.bit_generator.state
        self._buffer = self._draw(max(n, self._chunk))
        self._position = 0


class NormalPool(RandomPool):
    """:class:`RandomPool` over standard normals (CSI estimation noise).

    Same prefetch / ``unwind`` / restore-and-replay contract, drawn with
    ``Generator.standard_normal`` instead of ``Generator.random``.  Because
    ``Generator.normal(loc, scale, size=n)`` consumes the bit stream
    exactly like ``standard_normal(n)`` (one ziggurat draw per element),
    closing the pool leaves the generator indistinguishable from having
    made the per-frame ``normal(scale=σ, size=·)`` estimation calls
    directly — the property CHARISMA's fast-mode CSI batching rests on.
    """

    __slots__ = ()

    def __init__(self, rng: np.random.Generator, chunk: int = 4096) -> None:
        super().__init__(rng, chunk)
        self._draw = rng.standard_normal


class MacroRunner:
    """Executes the engine's frame loop in macro blocks (see module doc)."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.population = engine.population
        self.protocol = engine.protocol
        self.collector = engine.collector
        self.error_model = engine.error_model
        protocol = self.protocol
        self._supported = bool(
            getattr(protocol, "supports_macro_lookahead", False)
        )
        self._minislots = protocol.macro_minislots() if self._supported else None
        self._data_cap = protocol.data_slot_cap() if self._supported else None
        self._style = (
            getattr(protocol, "macro_contention_style", None)
            if self._supported
            else None
        )
        # The inline frame body: CHARISMA ranks holders, winners and the
        # backlog together by estimated channel, DRMA interleaves service
        # with converted request slots, and the rest serve FCFS.  ``None``
        # leaves every frame to the per-frame kernel.
        self._frame_body = None
        if self._style == "csi_schedule":
            self._frame_body = self._csi_frame
        elif self._style == "slot_loop":
            self._frame_body = self._slot_loop_frame
        elif self._minislots is not None or self._style == "auction":
            self._frame_body = self._fcfs_frame
        self._queue = protocol.request_queue
        self._convert_minislots = protocol.frame_structure.minislots_per_info_slot
        self._request_minislots = protocol.frame_structure.request_minislots
        self._reuse_snr = engine._reuse_snapshot_snr
        self._adaptive = protocol.modem.is_adaptive
        # DRMA's converted-slot draws (the other protocols' request phases
        # draw from their streams directly).
        self._pool = RandomPool(protocol.contention_rng)
        self._voice_p = protocol.permission.voice_probability
        self._data_p = protocol.permission.data_probability
        self._nv = self.population.n_voice

        # CSI-scheduled (CHARISMA, fast mode only) frame machinery: the
        # estimation-noise pool over the protocol's dedicated CSI child
        # stream plus the constants the fused inline frame folds its
        # per-frame mode lookup and priority metric over.
        self._csi_pool: Optional[NormalPool] = None
        self._csi_std = 0.0
        if self._style == "csi_schedule":
            estimator = protocol.csi_estimator
            self._csi_std = estimator.estimation_std(0.0)
            if self._csi_std:
                self._csi_pool = NormalPool(estimator.noise_rng)
            table = protocol.modem.mode_table
            self._thr_by_idx = table.throughput_by_mode_index
            self._packs_by_idx = table.packets_by_mode_index
            self._csi_thresholds = table.thresholds_db
            self._csi_mean_snr = protocol.modem.mean_snr_db
            weights = protocol.priority_calculator.weights
            self._csi_vdl = int(protocol.params.voice_deadline_frames)
            # pow(beta, h) over the reachable integer horizons, premultiplied
            # by the urgency weight — element-for-element the floats
            # ``priorities_columns`` computes, just looked up instead of
            # re-exponentiated every frame.
            self._csi_urg_lut = weights.urgency_weight_voice * np.power(
                weights.beta_voice,
                np.arange(self._csi_vdl + 1, dtype=float),
            )
            self._csi_alpha = (weights.alpha_voice, weights.alpha_data)
            self._csi_voffset = weights.voice_offset

        # Mirrors of the MAC state the fast path reads every frame, updated
        # incrementally from traffic/drop/grant events and resynchronised
        # from the authoritative structures after any fallback frame.
        self._mirrors_dirty = True
        # Frame index this runner expects to resume at; frames advanced
        # outside run_block (engine.step() interleaving) invalidate the
        # mirrors, which only track events the runner itself executed.
        self._expected_frame: Optional[int] = None
        self._holders: List[int] = []
        self._holders_set = set()
        self._cand_ids: List[int] = []
        self._cand_probs: List[float] = []
        self._cand_probs_arr: Optional[np.ndarray] = None

        # Deferred voice PHY rows (parallel lists) and buffered per-frame
        # statistic records ([attempts, collisions, idle, allocated,
        # queued, data_delivered, voice_losses]).
        self._phy_rec: List[int] = []
        self._phy_tids: List[int] = []
        self._phy_counts: List[int] = []
        self._phy_aux: List[int] = []  # voice: pre-window; data: capacity
        self._phy_frames: List[int] = []
        self._phy_chans: List[float] = []
        self._phy_thrs: List[float] = []  # read by the adaptive PHY only
        # Row indices of the voice and the data rows among the above.
        self._phy_voice_rows: List[int] = []
        self._phy_data_rows: List[int] = []
        # Voice rows already drawn, resolved into the population's voice
        # counters and the frame records once per block
        # (:meth:`_resolve_voice`): ``[record, tid, count, pre-window,
        # delivered]`` columns.
        self._drawn_voice: List[List[int]] = [[], [], [], [], []]
        self._records: List[List] = []

    # ------------------------------------------------------------------ API
    def invalidate_mirrors(self) -> None:
        """Mark the incremental MAC-state mirrors stale.

        External drivers that mutate population state between blocks (a
        constellation handover swaps terminal state across shards at the
        block boundary) call this so the next :meth:`run_block`
        resynchronises from the authoritative structures instead of
        trusting the event-driven mirrors.
        """
        self._mirrors_dirty = True

    def run_block(self, n_frames: int) -> None:
        """Advance ``n_frames`` frames as one macro block."""
        engine = self.engine
        population = self.population
        clock = engine._clock
        start = engine._frame_index
        if start != self._expected_frame:
            # Frames ran outside this runner (interleaved engine.step());
            # the incremental mirrors no longer describe current state.
            self._mirrors_dirty = True

        tracer = clock.tracer if clock is not None else None
        if clock:
            clock.start("traffic")
        plan = population.plan_frames(start, n_frames)
        if clock:
            clock.stop()
        if tracer is not None:
            tracer.event("macro.plan", frames=n_frames, start_frame=start)

        for offset in range(n_frames):
            frame = start + offset
            if clock:
                clock.start("channel")
            snapshot = engine._next_snapshot()
            if clock:
                clock.stop()
                clock.start("traffic")
            population.apply_planned_frame(plan, frame)
            drops = population.drop_expired_events(frame)
            if clock:
                clock.stop()
            if not self._fast_frame(plan, offset, frame, snapshot, drops, clock):
                self._fallback_frame(frame, snapshot, drops, clock)
            engine._frame_index = frame + 1

        self._flush_phy(clock)
        self._resolve_voice()
        self._commit_records(clock)
        unused = self._pool.close()
        if self._csi_pool is not None:
            unused += self._csi_pool.close()
        if tracer is not None and unused:
            tracer.event("macro.rollback", unused_draws=unused)
        self._expected_frame = engine._frame_index

    # ----------------------------------------------------------- fast frame
    def _fast_frame(self, plan, offset, frame, snapshot, drops, clock) -> bool:
        """Execute one frame inline; ``False`` defers to the per-frame kernel."""
        body = self._frame_body
        if body is None:
            return False
        if self._mirrors_dirty:
            self._sync_mirrors()
        else:
            self._update_mirrors(plan, offset, drops)
        if clock:
            clock.start("mac")
        queue = self._queue
        if queue is None:
            body(frame, snapshot, drops, clock, None)
            return True
        backlog = self._pop_backlog(frame)
        body(frame, snapshot, drops, clock, backlog)
        if backlog is not None or len(queue):
            # Served backlog rows left the queue and unserved winners
            # joined it: re-derive those terminals' candidacy.
            if backlog is not None:
                for tid in backlog.terminal_ids:
                    self._refresh_candidate(tid)
            for tid in queue.rows.terminal_ids:
                self._discard_candidate(tid)
        return True

    def _pop_backlog(self, frame):
        """Prune the request queue, then pop its backlog (``None`` if empty).

        A terminal the prune removes may contend again in this very frame,
        as in the per-frame kernels, so its candidacy is re-derived before
        the request phase.
        """
        queue = self._queue
        if not len(queue):
            return None
        queued = queue.rows.terminal_ids
        if queue.prune(frame, self.population.occupancy):
            for tid in queued:
                self._refresh_candidate(tid)
        return queue.pop_all() if len(queue) else None

    def _fcfs_frame(self, frame, snapshot, drops, clock, backlog) -> None:
        """RMAV, D-TDMA and RAMA frame inline: request phase, FCFS service.

        The request phase is the protocol's own rule, exactly the call its
        ``run_frame_batch`` makes; the allocation phase is the same
        :meth:`~repro.mac.base.MACProtocol.serve_fcfs` call.
        """
        protocol = self.protocol
        occ_list = self._occupancy_list()
        holders = self._release_holders(occ_list)
        minislots = self._minislots
        if minislots is not None:
            request = run_contention_ids(
                self._cand_ids,
                self._cand_probs_array(),
                minislots,
                protocol.contention_rng,
                fast=protocol.rng_fast,
            )
        else:
            request = protocol.run_auction(self._cand_ids, self._nv)
        winner_ids = request.winner_ids
        grants, new_voice, unserved = protocol.serve_fcfs(
            holders,
            backlog.terminal_ids if backlog is not None else [],
            winner_ids,
            occ_list,
            snapshot,
            self._nv,
            self._data_cap,
        )
        for tid in new_voice:
            self._grant_reservation(tid, frame)
        if unserved:
            protocol.requeue(frame, self.population, backlog, winner_ids, unserved)
        self._finish_frame(frame, snapshot, drops, clock, request, grants, occ_list)

    def _slot_loop_frame(self, frame, snapshot, drops, clock, backlog) -> None:
        """DRMA frame inline: the per-frame kernel's slot loop.

        The same :meth:`~repro.mac.drma.DRMAProtocol.serve_slots` call,
        with each converted slot resolved on the block's pool
        (:meth:`_contend_converted_slot`).

        A data winner with a deep buffer can win — and be served —
        several converted slots of one frame.  Emission follows the
        engine's flush-between-duplicates discipline
        (``Engine._execute_grant_columns_segmented``): before a repeated
        terminal's grant, everything granted so far is resolved, and the
        repeat is skipped if those grants drained the buffer (its slot
        stays allocated).  The frame's decisions read the frozen occupancy
        list, so only the emission sees the flush.
        """
        protocol = self.protocol
        occ_list = self._occupancy_list()
        grants, new_voice, leftovers, requests = protocol.serve_slots(
            self._release_holders(occ_list),
            backlog.terminal_ids if backlog is not None else [],
            self._cand_ids,
            self._cand_probs,
            occ_list,
            self._nv,
            snapshot,
            self._contend_converted_slot,
        )
        for tid in new_voice:
            self._grant_reservation(tid, frame)
        if leftovers:
            protocol.requeue(
                frame, self.population, backlog, requests.winner_ids, leftovers
            )
        ids = grants.terminal_ids
        record_index = self._open_record(drops, requests, grants)
        occupancy = self.population.occupancy
        capacities = grants.packet_capacities
        throughputs = grants.throughputs
        start = 0
        batched = set()
        for index, tid in enumerate(ids):
            if tid in batched:
                self._emit_grants(
                    record_index, frame, snapshot, ids[start:index],
                    capacities[start:index], throughputs[start:index],
                    occupancy,
                )
                if clock:
                    clock.stop()
                self._flush_phy(clock)
                if clock:
                    clock.start("mac")
                batched = set()
                start = index
                if occupancy[tid] <= 0:
                    start += 1
                    continue
            batched.add(tid)
        any_data = self._emit_grants(
            record_index, frame, snapshot, ids[start:], capacities[start:],
            throughputs[start:], occupancy,
        )
        if clock:
            clock.stop()
        if any_data:
            self._flush_phy(clock)

    @kernel(batch=False)
    def _contend_converted_slot(self, ids, probabilities):
        """One DRMA converted slot's ``N_x`` minislots on pooled draws.

        Returns ``(winner_ids, attempts, collisions, idle_slots)``.  The
        pools here hold a handful of contenders, so the resolution runs on
        Python scalars — the same doubles, comparisons and winner choices
        as ``run_contention_ids`` with its per-minislot
        ``rng.random(size=k)`` calls, at a fraction of a call per
        minislot.  One take covers the remaining minislots at the current
        pool size; a winner shrinks the pool, so the draws after its
        minislot go back to the pool and the rest is taken again at the
        new size.  The caller's lists are not modified.
        """
        minislots = self._convert_minislots
        m = _metrics.METRICS
        if m.enabled:
            m.inc("contention.rounds", minislots)
        pool = self._pool
        won: List[int] = []
        attempts = collisions = idle = 0
        left = minislots
        while left and ids:
            k = len(ids)
            draws = pool.take(left * k).tolist()
            for start in range(0, left * k, k):
                left -= 1
                n_transmitters = 0
                index = -1
                for position, probability in enumerate(probabilities):
                    if draws[start + position] < probability:
                        n_transmitters += 1
                        index = position
                attempts += n_transmitters
                if n_transmitters == 1:
                    pool.unwind(left * k)
                    if not won:
                        ids = list(ids)
                        probabilities = list(probabilities)
                    won.append(ids.pop(index))
                    probabilities.pop(index)
                    break
                if n_transmitters == 0:
                    idle += 1
                else:
                    collisions += 1
        return won, attempts, collisions, idle + left

    @kernel
    def _csi_frame(self, frame, snapshot, drops, clock, backlog) -> None:
        """CHARISMA frame inline (fast RNG mode): pooled CSI noise.

        Replicates ``CharismaProtocol.run_frame_batch``: the same
        ``run_contention_ids`` call against the contention child stream,
        one batched CSI estimate over reservation holders + winners —
        standard normals prefetched per block from the dedicated
        estimation stream and scaled by the amplitude-independent noise
        std, exactly the values ``estimate_amplitudes`` would produce —
        then the frame's mode lookup and priority ranking, and the same
        :meth:`~repro.core.allocator.CSIRankedAllocator.allocate` walk.  A
        backlog is prepared by ``CharismaProtocol.backlog_columns``, whose
        CSI polls draw from the same pool after the holder and winner
        estimates.  Voice grants defer their PHY outcome to the block
        flush; frames with data grants flush at frame end because data
        outcomes feed back into buffer state.  Parity CHARISMA never
        reaches this path (``supports_macro_lookahead`` is False without
        the dedicated CSI stream) and keeps its bit-exact per-frame
        fallback.
        """
        protocol = self.protocol
        population = self.population
        occ_list = self._occupancy_list()
        nv = self._nv

        # The holders' auto-generated requests, ascending id (the
        # ``reserved_ids`` order).
        reserved = self._release_holders(occ_list)

        request = run_contention_ids(
            self._cand_ids,
            self._cand_probs_array(),
            self._request_minislots,
            protocol.contention_rng,
            fast=protocol.rng_fast,
        )
        winner_ids = request.winner_ids
        n_reserved = len(reserved)
        all_ids = reserved + winner_ids if winner_ids else reserved
        if not all_ids and backlog is None:
            self._open_record(drops, request)
            if clock:
                clock.stop()
            return

        # CSI estimation: one pooled noise draw for holders + winners.
        estimates = self._pooled_estimate(snapshot.gather(all_ids))

        # Mode lookup, inline: ``searchsorted(thresholds) - 1`` is the mode
        # index and the capacity LUTs are addressed at ``index + 1``, so the
        # raw searchsorted count is itself the LUT row.  Estimates of 0.0
        # (clamped noise) log to -inf and land on the outage row.
        with np.errstate(divide="ignore"):
            snr_db = self._csi_mean_snr + 20.0 * np.log10(estimates)
        indices_p1 = np.searchsorted(self._csi_thresholds, snr_db, side="right")
        throughput = self._thr_by_idx[indices_p1]
        packets = self._packs_by_idx[indices_p1]

        # Priority metric, inline over the same gathers: every row arrived
        # this frame, so the data urgency term is exactly 0 and the voice
        # horizon is the head-of-line packet's frames-to-deadline — an
        # integer in [0, deadline], served from the pow() LUT.  The
        # term-by-term composition (weighted + urgency + offset) matches
        # ``priorities_columns`` float for float.
        tid_arr = np.asarray(all_ids, dtype=np.int64)
        voice = tid_arr < nv
        horizon = np.maximum(
            0, population.head_created[tid_arr] + (self._csi_vdl - frame)
        )
        urgency = np.where(voice, self._csi_urg_lut[horizon], 0.0)
        alpha_voice, alpha_data = self._csi_alpha
        if alpha_voice == alpha_data:
            weighted = alpha_voice * throughput
        else:
            weighted = np.where(voice, alpha_voice, alpha_data) * throughput
        offset = np.where(voice, self._csi_voffset, 0.0)
        values = weighted + urgency + offset
        deadlines = np.where(voice, horizon + frame, -1)

        queued = None
        if backlog is not None:
            # Queued rows have waited, so their data urgency is not 0: they
            # rank by the full priority metric.
            queued = protocol.backlog_columns(
                backlog, population, snapshot, frame,
                estimate=self._pooled_estimate,
            )
            queued_packets, queued_throughput, channel = (
                protocol.allocator.mode_columns(queued.csi_amplitudes)
            )
            values = np.concatenate([
                values,
                protocol.priority_calculator.priorities_columns(
                    queued, frame, channel=channel
                ),
            ])
            all_ids = all_ids + queued.terminal_ids.tolist()
            deadlines = np.concatenate([deadlines, queued.deadline_frames])
            packets = np.concatenate([packets, queued_packets])
            throughput = np.concatenate([throughput, queued_throughput])

        grants = GrantColumns()
        new_voice, unserved, deferred = protocol.allocator.allocate(
            np.argsort(-values, kind="stable").tolist(),
            all_ids,
            deadlines.tolist(),
            packets.tolist(),
            throughput.tolist(),
            occ_list,
            nv,
            n_reserved,
            frame,
            grants,
        )
        for tid in new_voice:
            self._grant_reservation(tid, frame)

        # Unserved / deferred requests go back to the queue (with-queue
        # variant) or are dropped; the frame's request columns are built
        # only on this path — the common all-served frame never needs them.
        if (unserved or deferred) and self._queue is not None:
            pending = protocol._pending_columns(
                population,
                np.asarray(reserved, dtype=np.int64),
                np.asarray(winner_ids, dtype=np.int64),
                estimates,
                frame,
            )
            if queued is not None:
                pending = RequestColumns.concatenate([pending, queued])
            protocol.requeue_rows(pending, n_reserved, unserved + deferred)

        self._finish_frame(frame, snapshot, drops, clock, request, grants, occ_list)

    def _pooled_estimate(self, amplitudes, frame_index: int = 0):
        """``CSIEstimator.estimate_amplitudes`` on the block's pooled normals.

        The noise std does not depend on the amplitude, so the estimates
        are ``max(0, amplitude + std * z)`` over the pool's next standard
        normals — the values and stream consumption of the per-frame
        call.  A perfect estimator (std 0) draws nothing.
        """
        std = self._csi_std
        if std == 0.0 or not len(amplitudes):
            return amplitudes
        estimates = amplitudes + std * self._csi_pool.take(len(amplitudes))
        np.maximum(estimates, 0.0, out=estimates)
        return estimates

    # ------------------------------------------------------- fallback frame
    def _fallback_frame(self, frame, snapshot, drops, clock) -> None:
        """One frame through the protocol's own kernel, streams realigned."""
        engine = self.engine
        population = self.population
        self._pool.close()
        if self._csi_pool is not None:
            self._csi_pool.close()
        self._flush_phy(clock)
        self._resolve_voice()
        self._commit_records(clock)
        m = _metrics.METRICS
        if m.enabled:
            m.inc("macro.fallback_frames")
        if clock is not None and clock.tracer is not None:
            clock.tracer.event("macro.fallback", frame=frame)

        if clock:
            clock.start("mac")
        loss_before = population.voice_loss_total
        outcome = self.protocol.run_frame_batch(frame, population, snapshot)
        if clock:
            clock.stop()
            clock.start("phy")
        data_delivered = engine._execute_grant_columns(
            outcome.grants, snapshot, frame
        )
        if clock:
            clock.stop()
            clock.start("metrics")
        counted = 0
        for _tid, _dropped, in_window in drops:
            counted += in_window
        voice_losses = counted + population.voice_loss_total - loss_before
        self.collector.record_frame(outcome, data_delivered, voice_losses)
        if clock:
            clock.stop()
        self._mirrors_dirty = True

    # ------------------------------------------------------------- plumbing
    @kernel
    def _flush_phy(self, clock) -> None:
        """Draw all deferred transmissions' outcomes in one batched PHY call.

        Data outcomes apply at once (the next frame's decisions read the
        buffers); the drawn voice rows wait for :meth:`_resolve_voice`.
        """
        if not self._phy_tids:
            return
        if clock:
            clock.start("phy")
        chans = np.asarray(self._phy_chans, dtype=float)
        delivered = self.error_model.transmit_batch(
            None if self._reuse_snr else chans,
            np.asarray(self._phy_counts, dtype=np.int64),
            np.asarray(self._phy_thrs, dtype=float) if self._adaptive else None,
            snr_db=chans if self._reuse_snr else None,
        ).tolist()
        phy_rec = self._phy_rec
        phy_tids = self._phy_tids
        phy_aux = self._phy_aux
        voice_rows = self._phy_voice_rows
        data_rows = self._phy_data_rows
        if voice_rows:
            columns = (phy_rec, phy_tids, self._phy_counts, phy_aux, delivered)
            for drawn, column in zip(self._drawn_voice, columns):
                drawn += (
                    [column[row] for row in voice_rows] if data_rows else column
                )
        if data_rows:
            population = self.population
            records = self._records
            occupancy = population.occupancy
            mirrors_ok = not self._mirrors_dirty
            transmit = population.transmit
            for j in data_rows:
                tid = phy_tids[j]
                n_delivered = delivered[j]
                transmit(tid, phy_aux[j], n_delivered, self._phy_frames[j])
                records[phy_rec[j]][5] += n_delivered
                if mirrors_ok and n_delivered and occupancy[tid] == 0:
                    self._discard_candidate(tid)
        phy_rec.clear()
        phy_tids.clear()
        self._phy_counts.clear()
        phy_aux.clear()
        self._phy_frames.clear()
        self._phy_chans.clear()
        self._phy_thrs.clear()
        voice_rows.clear()
        data_rows.clear()
        if clock:
            clock.stop()

    def _resolve_voice(self) -> None:
        """Fold every drawn voice row into the counters and frame records.

        One accel pass fuses the per-row delivered/errored split with the
        per-terminal accumulation; only the (rare) errored rows loop back
        for record attribution.  Nothing inside a block reads these
        counters, so the block's rows resolve together before its records
        are committed.
        """
        rec, tids, counts, pre_window, delivered = self._drawn_voice
        if not tids:
            return
        errored_rows, errors = self.population.resolve_voice_outcomes(
            np.asarray(tids, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            np.asarray(pre_window, dtype=np.int64),
            np.asarray(delivered, dtype=np.int64),
        )
        records = self._records
        for k in errored_rows.tolist():
            records[rec[k]][6] += int(errors[k])
        for column in self._drawn_voice:
            column.clear()

    def _commit_records(self, clock) -> None:
        if not self._records:
            return
        if clock:
            clock.start("metrics")
        self.collector.record_block(self._records)
        self._records = []
        if clock:
            clock.stop()

    # ------------------------------------------------------ frame helpers
    def _occupancy_list(self):
        """Buffer occupancies for a frame's scalar reads.

        Small populations: one bulk ``tolist`` beats the dozens of scalar
        reads the frame bodies make; large ones read just the few entries
        they need straight from the array.
        """
        occupancy = self.population.occupancy
        return occupancy.tolist() if occupancy.shape[0] <= 256 else occupancy

    @kernel(batch=False)
    def _release_holders(self, occ_list) -> List[int]:
        """Release ended reservations; return the holders with packets.

        A holder with an empty buffer whose talkspurt has ended gives its
        reservation back.  The holders with packets come back in ascending
        id order, the ``reserved_ids`` order of the per-frame kernels.
        """
        in_talkspurt = self.population.in_talkspurt
        live: List[int] = []
        to_release = None
        for tid in self._holders:
            if occ_list[tid] > 0:
                live.append(tid)
            elif not in_talkspurt[tid]:
                if to_release is None:
                    to_release = []
                to_release.append(tid)
        if to_release is not None:
            reservations = self.protocol.reservations
            for tid in to_release:
                reservations.release(tid)
                self._holders.remove(tid)
                self._holders_set.discard(tid)
        return live

    @kernel(batch=False)
    def _grant_reservation(self, tid: int, frame: int) -> None:
        """A newly served voice winner takes a reservation."""
        self.protocol.reservations.grant(tid, frame)
        insort(self._holders, tid)
        self._holders_set.add(tid)
        self._discard_candidate(tid)

    @kernel(batch=False)
    def _open_record(self, drops, request, grants=None) -> int:
        """Append the frame's statistics record; return its index.

        The record is ``[attempts, collisions, idle, allocated, queued,
        data_delivered, voice_losses]``: the request phase's statistics,
        the granted slots, the queue length after the frame, and voice
        losses starting at the frame's in-window deadline drops; the PHY
        flush adds the errored packets and the delivered data.
        """
        queue = self._queue
        record = [
            request.attempts,
            request.collisions,
            request.idle_slots,
            grants.total_slots if grants is not None else 0,
            len(queue) if queue is not None else 0,
            0,
            0,
        ]
        if drops:
            counted = 0
            for _tid, _dropped, in_window in drops:
                counted += in_window
            record[6] = counted
        records = self._records
        records.append(record)
        return len(records) - 1

    def _finish_frame(
        self, frame, snapshot, drops, clock, request, grants, occ_list
    ) -> None:
        """Record the frame, emit its grants in grant order, stop the clock.

        Data outcomes feed back into buffer state, so a frame with a data
        grant flushes the PHY at its end; voice outcomes wait for the block
        flush.
        """
        any_data = self._emit_grants(
            self._open_record(drops, request, grants),
            frame,
            snapshot,
            grants.terminal_ids,
            grants.packet_capacities,
            grants.throughputs,
            occ_list,
        )
        if clock:
            clock.stop()
        if any_data:
            self._flush_phy(clock)

    @kernel(batch=False)
    def _emit_grants(
        self, record_index, frame, snapshot, tids, capacities, throughputs,
        occ_list,
    ) -> bool:
        """Defer the transmissions of grant columns, in grant order.

        Rows are queued in grant order, so the flush reads the error stream
        (and fast mode's lazy channels) in the per-frame executor's order.
        A voice grant pops its packets now: a sent voice packet leaves the
        buffer whatever its fate.  A data grant sends ``min(capacity,
        occupancy)`` packets, and only the flush changes its buffer.
        Returns whether a data grant was queued; the caller then flushes at
        frame end, because the next frame's decisions need that buffer
        state.
        """
        n = len(tids)
        if not n:
            return False
        first = len(self._phy_tids)
        read = snapshot.read
        reuse_snr = self._reuse_snr
        self._phy_rec += [record_index] * n
        self._phy_tids += tids
        self._phy_frames += [frame] * n
        self._phy_chans += [read(tid, reuse_snr) for tid in tids]
        if self._adaptive:
            self._phy_thrs += [
                np.nan if throughput is None else throughput
                for throughput in throughputs
            ]
        nv = self._nv
        pop_voice = self.population.transmit_voice_pop
        phy_counts = self._phy_counts
        phy_aux = self._phy_aux
        voice_rows = self._phy_voice_rows
        data_rows = self._phy_data_rows
        any_data = False
        for row, tid, capacity in zip(range(first, first + n), tids, capacities):
            if tid < nv:
                n_sent, aux = pop_voice(tid, capacity)
                voice_rows.append(row)
            else:
                occupancy = int(occ_list[tid])
                n_sent = capacity if capacity < occupancy else occupancy
                aux = capacity
                data_rows.append(row)
                any_data = True
            phy_counts.append(n_sent)
            phy_aux.append(aux)
        return any_data

    # -------------------------------------------------------------- mirrors
    def _sync_mirrors(self) -> None:
        """Rebuild the holder/candidate mirrors from authoritative state."""
        ids, probs = self.protocol.contention_candidate_ids(self.population)
        self._cand_ids = ids.tolist()
        self._cand_probs = probs.tolist()
        self._cand_probs_arr = None
        holders = self.protocol.reservations.holders()
        self._holders = holders
        self._holders_set = set(holders)
        self._mirrors_dirty = False

    def _update_mirrors(self, plan, offset, drops) -> None:
        """Fold one frame's traffic/drop events into the candidate mirror."""
        toggles = plan.toggles[offset]
        bursts = plan.bursts[offset]
        generated = plan.voice_gen[offset]
        if toggles is None and bursts is None and generated is None and not drops:
            return
        if toggles is not None:
            for tid, now_talking in toggles:
                if not now_talking:
                    # Leaving the talkspurt ends voice candidacy; entering
                    # it is handled by the same frame's generation event.
                    self._discard_candidate(tid)
        # A terminal with a queued request waits for its announcement
        # instead of contending.
        queue = self._queue
        queued = (
            queue.contains_terminal
            if queue is not None and len(queue)
            else None
        )
        if generated is not None:
            holders_set = self._holders_set
            for tid in generated:
                if tid not in holders_set and not (queued and queued(tid)):
                    self._add_candidate(tid, self._voice_p)
        if bursts is not None:
            for tid, _size in bursts:
                if not (queued and queued(tid)):
                    self._add_candidate(tid, self._data_p)
        if drops:
            occupancy = self.population.occupancy
            for tid, _dropped, _counted in drops:
                if occupancy[tid] == 0:
                    self._discard_candidate(tid)

    def _refresh_candidate(self, tid: int) -> None:
        """Re-derive one terminal's candidacy after it left the queue.

        The rule of ``contention_candidate_ids``: packets buffered, data or
        in a talkspurt, no reservation and no queued request.
        """
        population = self.population
        if tid >= population.occupancy.shape[0]:
            return
        if (
            population.occupancy[tid] > 0
            and (tid >= self._nv or population.in_talkspurt[tid])
            and tid not in self._holders_set
            and not self._queue.contains_terminal(tid)
        ):
            self._add_candidate(
                tid, self._voice_p if tid < self._nv else self._data_p
            )
        else:
            self._discard_candidate(tid)

    def _cand_probs_array(self) -> np.ndarray:
        """The candidate probabilities as an array, cached until they change."""
        probs = self._cand_probs_arr
        if probs is None:
            probs = self._cand_probs_arr = np.asarray(self._cand_probs, dtype=float)
        return probs

    def _add_candidate(self, tid: int, probability: float) -> None:
        ids = self._cand_ids
        index = bisect_left(ids, tid)
        if index < len(ids) and ids[index] == tid:
            return
        ids.insert(index, tid)
        self._cand_probs.insert(index, probability)
        self._cand_probs_arr = None

    def _discard_candidate(self, tid: int) -> None:
        ids = self._cand_ids
        index = bisect_left(ids, tid)
        if index < len(ids) and ids[index] == tid:
            del ids[index]
            del self._cand_probs[index]
            self._cand_probs_arr = None
