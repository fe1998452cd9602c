"""The engine's frame loop: blocks of frames with deferred, batched work.

:class:`MacroRunner` advances the simulation in blocks of
:attr:`~repro.sim.engine.UplinkSimulationEngine.BLOCK_FRAMES` (64) frames,
fewer at the warm-up boundary and at the end of the run; a one-frame block
is the smallest step
(:meth:`~repro.sim.engine.UplinkSimulationEngine.step`).  Every frame runs
the paper's frame procedure (Section 4.3): the channel snapshot, the
traffic, the protocol's request and allocation phases
(:meth:`~repro.mac.base.MACProtocol.run_frame`), then the granted
transmissions through the PHY.  What is predictable is done once per block
instead of once per frame:

* **channel** — the block's start evaluates the channel for exactly its
  frames (:meth:`~repro.channel.manager.ChannelManager.advance_block`), so
  no frame runs on an interference penalty that a barrier has replaced;
* **traffic** — :meth:`~repro.traffic.population.TerminalPopulation.plan_frames`
  pre-draws the whole block's source events in per-frame order, with the
  talkers in voice-phase buckets, and each frame replays its recorded
  events onto the voice buffers' bit windows and the data bursts' FIFOs:
  scalar writes for a few, array operations for many; the frame's
  deadline drops come back as ``(ids, lost, counted)`` columns that the
  frame's record and the candidate mirror read;
* **MAC state** — the contention candidates are kept as an incremental
  mirror, updated from the frame's traffic, drop, grant and request-queue
  events instead of being re-derived from the population arrays;
* **PHY** — voice transmissions pop their packets at their own frame (a
  transmitted voice packet leaves the buffer whether or not it is
  received), while the Bernoulli outcomes of many frames are drawn in one
  batched binomial call — bit-exact, because batched binomials consume the
  error stream element-wise — and fold into the voice counters once per
  block; a frame with a data grant flushes at its end, because data
  outcomes feed back into the buffers the next frame reads;
* **draws** — DRMA's converted request slots contend through
  :func:`~repro.mac.contention.run_contention_ids` on a :class:`RandomPool`
  of uniforms prefetched from the contention stream, and CHARISMA's
  estimation noise in fast RNG mode takes standard normals from a
  :class:`NormalPool` over its estimator's stream (:class:`BlockDraws`).
  NumPy generators consume their bit stream element by element, so a pool
  of ``N`` draws is exactly the next ``N`` per-call draws; at a block's
  end the pool rolls the generator back and replays the consumed prefix;
* **metrics** — per-frame statistics accumulate in plain lists and cross
  the collector boundary once per block.

No frame takes another path, so in either RNG mode the result does not
depend on the block size: the golden baselines in ``tests/golden`` pin
blocks of 1 and of 64 frames of every cell to one digest, and
``tests/sim/test_macro_parity.py`` sweeps blocks of {4, 16, 64} against
one-frame blocks for all six protocols in parity mode.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Set

import numpy as np

from repro.lint.contracts import kernel
from repro.obs import metrics as _metrics

__all__ = ["BlockDraws", "MacroRunner", "NormalPool", "RandomPool"]


class RandomPool:
    """Prefetched uniform draws with exact roll-back/replay.

    ``take(size)`` hands out the next ``size`` doubles of the generator's
    stream from a prefetched buffer, and ``random(size)`` is the same call,
    so the pool stands in for the generator in
    :func:`~repro.mac.contention.run_contention_ids`' per-minislot draws;
    ``close()`` restores the generator to the pre-prefetch state and
    re-consumes exactly the handed-out prefix, so after closing, the
    generator state is indistinguishable from having made the per-frame
    draws directly.
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

    def take(self, size: int) -> np.ndarray:
        """The next ``size`` stream doubles (a view of the prefetch buffer)."""
        buffer = self._buffer
        if buffer is None or self._position + size > buffer.shape[0]:
            self._refill(size)
            buffer = self._buffer
        start = self._position
        self._position = start + size
        return buffer[start : self._position]

    random = take

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

    Same prefetch / restore-and-replay contract, drawn with
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


class BlockDraws:
    """The pooled draws a block's frames hand to the protocol.

    :attr:`pool` holds uniforms prefetched from the contention stream, on
    which DRMA's converted request slots contend.  :meth:`estimate` is
    CHARISMA's CSI estimation: on standard normals pooled from the
    estimator's stream in fast RNG mode, where no other draw of the frame
    shares that stream, and the estimator's own call in parity mode, where
    the noise shares the MAC stream with the request phase.  :meth:`close`
    ends the block and leaves every stream exactly where unpooled draws
    would have.
    """

    def __init__(self, protocol) -> None:
        self.pool = RandomPool(protocol.contention_rng)
        self._csi_pool: Optional[NormalPool] = None
        self._csi_std = 0.0
        estimator = getattr(protocol, "csi_estimator", None)
        if estimator is not None:
            self.estimate = estimator.estimate_amplitudes
            if protocol.rng_fast:
                self._csi_std = estimator.estimation_std(0.0)
                if self._csi_std:
                    self._csi_pool = NormalPool(estimator.noise_rng)
                    self.estimate = self._pooled_estimate

    def close(self) -> int:
        """End the block; return the prefetched draws rolled back unused."""
        unused = self.pool.close()
        if self._csi_pool is not None:
            unused += self._csi_pool.close()
        return unused

    def _pooled_estimate(self, amplitudes, frame_index: int = 0):
        """``CSIEstimator.estimate_amplitudes`` on the block's pooled normals.

        The noise std does not depend on the amplitude, so the estimates
        are ``max(0, amplitude + std * z)`` over the pool's next standard
        normals — the values and stream consumption of the estimator's
        call.
        """
        if not len(amplitudes):
            return amplitudes
        estimates = amplitudes + self._csi_std * self._csi_pool.take(
            len(amplitudes)
        )
        np.maximum(estimates, 0.0, out=estimates)
        return estimates


class MacroRunner:
    """Executes the engine's frame loop in blocks (see module doc).

    The runner keeps the engine's components but not the engine itself:
    the engine owns the runner and passes itself to :meth:`run_block`, so
    no reference cycle keeps a finished engine's arrays alive until the
    next full garbage collection.
    """

    def __init__(self, engine) -> None:
        self.population = engine.population
        self.protocol = engine.protocol
        self.collector = engine.collector
        self.error_model = engine.error_model
        protocol = self.protocol
        self._queue = protocol.request_queue
        self._granted = protocol.reservations.granted
        self._reuse_snr = engine._reuse_snapshot_snr
        self._adaptive = protocol.modem.is_adaptive
        self._draws = BlockDraws(protocol)
        self._nv = self.population.n_voice

        # The contention-candidate mirror (ascending ids, plus the same ids
        # as a set for membership tests), updated incrementally from the
        # frames' traffic, drop, grant and queue events and rebuilt from
        # the authoritative state when marked dirty.
        self._mirrors_dirty = True
        self._cand_ids: List[int] = []
        self._cand_set: Set[int] = set()

        # Deferred PHY rows (parallel lists) and buffered per-frame
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
        """Mark the incremental candidate mirror stale.

        External drivers that mutate population state between blocks (a
        constellation handover swaps terminal state across shards at the
        block boundary) call this so the next :meth:`run_block`
        resynchronises from the authoritative structures instead of
        trusting the event-driven mirror.
        """
        self._mirrors_dirty = True

    def run_block(self, n_frames: int, engine) -> None:
        """Advance ``engine`` by ``n_frames`` frames as one block."""
        population = self.population
        clock = engine._clock
        start = engine._frame_index
        tracer = clock.tracer if clock is not None else None
        if tracer is not None:
            tracer.event("macro.plan", frames=n_frames, start_frame=start)

        snapshots = plan = None
        for offset in range(n_frames):
            frame = start + offset
            if clock:
                clock.start("channel")
            if snapshots is None:
                # The first frame's channel and traffic phases evaluate the
                # whole block's channel and traffic.
                snapshots = engine.channels.advance_block(n_frames)
            snapshot = snapshots[offset]
            if clock:
                clock.stop()
                clock.start("traffic")
            if plan is None:
                plan = population.plan_frames(start, n_frames)
            population.apply_planned_frame(plan, frame)
            drops = population.drop_expired_events(frame)
            if clock:
                clock.stop()
            if self._mirrors_dirty:
                self._sync_mirrors()
            else:
                self._update_mirrors(plan, offset, drops)
            if clock:
                clock.start("mac")
            self._frame(frame, snapshot, drops, clock)
            engine._frame_index = frame + 1

        self._flush_phy(clock)
        self._resolve_voice()
        self._commit_records(clock)
        unused = self._draws.close()
        if tracer is not None and unused:
            tracer.event("macro.rollback", unused_draws=unused)

    # ---------------------------------------------------------------- frame
    def _frame(self, frame, snapshot, drops, clock) -> None:
        """One frame: the protocol's request and allocation phases, then
        its grants (the open ``mac`` phase is stopped on return)."""
        protocol = self.protocol
        population = self.population
        queue = self._queue
        backlog = self._pop_backlog(frame) if queue is not None else None
        occupancy = self._occupancy_list()
        reservations = protocol.reservations
        request, grants, new_voice = protocol.run_frame(
            frame,
            population,
            snapshot,
            reservations.live_holders(occupancy, population.in_talkspurt),
            self._cand_ids,
            backlog,
            occupancy,
            self._draws,
        )
        for tid in new_voice:
            reservations.grant(tid)
            self._discard_candidate(tid)
        self._emit_frame(frame, snapshot, drops, clock, request, grants, occupancy)
        if queue is not None and (backlog is not None or len(queue)):
            # Served backlog rows left the queue and unserved requests
            # joined it: re-derive those terminals' candidacy.
            if backlog is not None:
                for tid in backlog.terminal_ids:
                    self._refresh_candidate(tid)
            for tid in queue.rows.terminal_ids:
                self._discard_candidate(tid)

    def _pop_backlog(self, frame):
        """Prune the request queue, then pop its backlog (``None`` if empty).

        A terminal the prune removes may contend again in this very frame,
        so its candidacy is re-derived before the request phase.
        """
        queue = self._queue
        if not len(queue):
            return None
        queued = queue.rows.terminal_ids
        if queue.prune(frame, self.population.occupancy):
            for tid in queued:
                self._refresh_candidate(tid)
        return queue.pop_all() if len(queue) else None

    @kernel(batch=False)
    def _emit_frame(
        self, frame, snapshot, drops, clock, request, grants, occupancy
    ) -> None:
        """Record the frame, emit its grants in grant order, stop the clock.

        Data outcomes feed back into buffer state, so a frame with a data
        grant flushes the PHY at its end; voice outcomes wait for the block
        flush.  A terminal granted twice in one frame (a DRMA data winner
        with a deep buffer) transmits on the buffer its earlier grants
        left: before the repeat, everything granted so far is flushed, and
        the repeat is skipped if those grants drained the buffer (its slot
        stays allocated).  The frame's decisions read the frozen
        ``occupancy``; only the emission sees the flush.
        """
        record = self._open_record(drops, request, grants)
        ids = grants.terminal_ids
        capacities = grants.packet_capacities
        throughputs = grants.throughputs
        start = 0
        if len(set(ids)) != len(ids):
            occupancy = self.population.occupancy
            batched = set()
            for index, tid in enumerate(ids):
                if tid in batched:
                    self._emit_grants(
                        record, frame, snapshot, ids[start:index],
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
            record, frame, snapshot, ids[start:], capacities[start:],
            throughputs[start:], occupancy,
        )
        if clock:
            clock.stop()
        if any_data:
            self._flush_phy(clock)

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
    def _open_record(self, drops, request, grants) -> int:
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
            grants.total_slots,
            len(queue) if queue is not None else 0,
            0,
            sum(drops[2]),
        ]
        records = self._records
        records.append(record)
        return len(records) - 1

    @kernel(batch=False)
    def _emit_grants(
        self, record_index, frame, snapshot, tids, capacities, throughputs,
        occ_list,
    ) -> bool:
        """Defer the transmissions of grant columns, in grant order.

        Rows are queued in grant order, so the flush reads the error stream
        (and fast mode's lazy channels) in grant order.  A voice grant pops its packets now: a sent voice packet leaves the
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
        """Rebuild the candidate mirror from authoritative state."""
        self._cand_ids = self.protocol.contention_candidate_ids(
            self.population
        ).tolist()
        self._cand_set = set(self._cand_ids)
        self._mirrors_dirty = False

    def _update_mirrors(self, plan, offset, drops) -> None:
        """Fold one frame's traffic/drop events into the candidate mirror."""
        toggles = plan.toggles[offset]
        bursts = plan.bursts[offset]
        generated = plan.voice_gen[offset]
        dropped = drops[0]
        if toggles is None and bursts is None and generated is None and not dropped:
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
            # Most talkers generate onto a backlog and are mirrored already.
            mirrored = self._cand_set
            granted = self._granted
            for tid in generated:
                if (
                    tid not in mirrored
                    and tid not in granted
                    and not (queued and queued(tid))
                ):
                    self._add_candidate(tid)
        if bursts is not None:
            for tid, _size in bursts:
                if not (queued and queued(tid)):
                    self._add_candidate(tid)
        if dropped:
            for tid, left in zip(
                dropped, self.population.occupancy[dropped].tolist()
            ):
                if not left:
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
            and tid not in self._granted
            and not self._queue.contains_terminal(tid)
        ):
            self._add_candidate(tid)
        else:
            self._discard_candidate(tid)

    def _add_candidate(self, tid: int) -> None:
        if tid in self._cand_set:
            return
        self._cand_set.add(tid)
        self._cand_ids.insert(bisect_left(self._cand_ids, tid), tid)

    def _discard_candidate(self, tid: int) -> None:
        if tid not in self._cand_set:
            return
        self._cand_set.discard(tid)
        del self._cand_ids[bisect_left(self._cand_ids, tid)]
