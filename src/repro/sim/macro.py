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
* **contention** — permission draws are served from a :class:`RandomPool`
  prefetched from the contention stream.  NumPy generators consume their
  bit stream element by element, so a pool of ``N`` uniforms is exactly the
  next ``N`` per-minislot draws regardless of how the per-frame path would
  have partitioned the calls; when a frame's true consumption falls short
  of the prefetch (a winner shrinks later minislots, a state change ends
  the block), the pool **rolls the generator back and replays** exactly the
  consumed prefix, leaving the stream bit-identical to per-frame stepping;
* **reservation PHY** — voice-reservation transmissions pop their packets
  deterministically at their own frame (a transmitted voice packet leaves
  the buffer whether or not it is received), while the Bernoulli outcomes
  of many frames resolve in one batched binomial draw — again bit-exact,
  because batched binomials consume the error stream element-wise;
* **metrics** — per-frame statistics accumulate in plain lists and cross
  the collector boundary once per block.

A frame the fast path cannot express exactly — non-empty request queue, a
protocol without lookahead support (CHARISMA draws CSI estimates every
frame), DRMA/RAMA frames with live contenders — falls back to the
protocol's own ``run_frame_batch`` after flushing all deferred state, so
the surrounding frames still enjoy the fused traffic/channel/metrics path.
In ``rng_mode="parity"`` the whole construction is **bit-identical** to
``macro_frames=1``; ``tests/sim/test_macro_parity.py`` sweeps
``macro_frames`` in {1, 4, 16, 64} over all six protocols to prove it, and
the golden baselines in ``tests/golden`` pin both modes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Optional

import numpy as np

from repro.accel import contention_round_scan
from repro.lint.contracts import kernel
from repro.mac.contention import run_contention_ids
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
        self._data_cap = protocol.macro_data_slot_cap() if self._supported else None
        self._style = (
            getattr(protocol, "macro_contention_style", None)
            if self._supported
            else None
        )
        self._info_slots = protocol.frame_structure.info_slots
        self._convert_minislots = protocol.frame_structure.minislots_per_info_slot
        self._auction_slots = protocol.frame_structure.request_minislots
        self._reuse_snr = engine._reuse_snapshot_snr
        self._adaptive = protocol.modem.is_adaptive
        self._pool = RandomPool(protocol.contention_rng)
        self._voice_p = protocol.permission.voice_probability
        self._data_p = protocol.permission.data_probability
        self._nv = self.population.n_voice

        # CSI-scheduled (CHARISMA, fast mode only) frame machinery: the
        # estimation-noise pool over the protocol's dedicated CSI child
        # stream plus the constants the fused inline frame folds its
        # per-frame mode lookup, priority metric and allocation walk over.
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
            self._csi_slots = protocol.allocator.n_info_slots
            self._csi_margin = protocol.allocator.defer_deadline_margin
            self._csi_lowest_thr = table[0].throughput

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
        self._phy_voice: List[bool] = []
        self._phy_frames: List[int] = []
        self._phy_chans: List[float] = []
        self._phy_thrs: List[float] = []
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
        if not self._supported:
            return False
        protocol = self.protocol
        queue = protocol.request_queue
        if queue is not None and len(queue):
            return False
        if self._mirrors_dirty:
            self._sync_mirrors()
        else:
            self._update_mirrors(plan, offset, drops)
        if self._style == "csi_schedule":
            # CHARISMA frames always draw CSI and rank their pending pool —
            # quiet or contended — so they bypass the generic holder-serve
            # body entirely.
            return self._csi_frame(frame, snapshot, drops, clock)
        candidates = self._cand_ids
        minislots = self._minislots
        if candidates and minislots is None:
            # No fixed request subframe: dispatch on the protocol's inline
            # contention style.  DRMA's interleaved serve/convert loop is
            # structurally its own frame body; RAMA's auction slots into
            # the generic frame as a request-phase variant; anything else
            # requires the full per-frame kernel.
            if self._style == "slot_loop":
                return self._slot_loop_frame(frame, snapshot, drops, clock)
            if self._style != "auction":
                return False

        if clock:
            clock.start("mac")
        population = self.population
        occupancy_array = population.occupancy
        # Small populations: one bulk tolist beats the dozens of scalar
        # reads the holder/winner loops make; large ones read just the few
        # entries they need straight from the array.
        occ_list = (
            occupancy_array.tolist()
            if occupancy_array.shape[0] <= 256
            else occupancy_array
        )
        in_talkspurt = population.in_talkspurt

        # Reservation release + FCFS reserved service, ascending holder id.
        served: List[int] = []
        slots_left = self._info_slots
        to_release = None
        for tid in self._holders:
            if occ_list[tid] > 0:
                if slots_left > 0:
                    served.append(tid)
                    slots_left -= 1
            elif not in_talkspurt[tid]:
                if to_release is None:
                    to_release = []
                to_release.append(tid)
        if to_release is not None:
            reservations = protocol.reservations
            for tid in to_release:
                reservations.release(tid)
                self._holders.remove(tid)
                self._holders_set.discard(tid)

        # Request phase.
        if candidates:
            if minislots is not None:
                winners, attempts, collisions, idle = self._run_contention(
                    minislots
                )
            else:
                winners, attempts, collisions, idle = self._run_auction()
        else:
            winners = ()
            attempts = collisions = 0
            idle = protocol.macro_quiet_idle_slots(len(served))

        # Allocation phase: per-grant capacities in one channel lookup.
        voice_winners: List[int] = []
        data_winners: List[int] = []
        if winners:
            nv = self._nv
            for tid in winners:
                (voice_winners if tid < nv else data_winners).append(tid)
        grant_order = served + voice_winners + data_winners
        if self._adaptive and grant_order:
            per_slot_arr, thr_arr = protocol.grant_capacity_columns(
                np.asarray(grant_order, dtype=np.int64), snapshot
            )
            per_slot_list = per_slot_arr.tolist()
            thr_list = thr_arr.tolist()
        else:
            per_slot_list = thr_list = None

        voice_rows: List = []  # (tid, capacity, throughput)
        data_rows: List = []
        allocated = len(served)
        for position, tid in enumerate(served):
            if per_slot_list is None:
                voice_rows.append((tid, 1, None))
            else:
                voice_rows.append((tid, per_slot_list[position], thr_list[position]))

        unserved: List[int] = []
        cap_cursor = len(served)
        for tid in voice_winners:
            if slots_left < 1:
                unserved.append(tid)
                cap_cursor += 1
                continue
            if per_slot_list is None:
                voice_rows.append((tid, 1, None))
            else:
                voice_rows.append(
                    (tid, per_slot_list[cap_cursor], thr_list[cap_cursor])
                )
            cap_cursor += 1
            slots_left -= 1
            allocated += 1
            protocol.reservations.grant(tid, frame)
            insort(self._holders, tid)
            self._holders_set.add(tid)
            self._discard_candidate(tid)
        data_cap = self._data_cap
        for tid in data_winners:
            if slots_left < 1:
                unserved.append(tid)
                cap_cursor += 1
                continue
            if per_slot_list is None:
                per_slot, throughput = 1, None
            else:
                per_slot = per_slot_list[cap_cursor]
                throughput = thr_list[cap_cursor]
            cap_cursor += 1
            needed = -(-int(occ_list[tid]) // max(1, per_slot))
            n_slots = needed if needed < slots_left else slots_left
            if n_slots < 1:
                n_slots = 1
            if data_cap is not None and n_slots > data_cap:
                n_slots = data_cap
            slots_left -= n_slots
            allocated += n_slots
            data_rows.append((tid, per_slot * n_slots, throughput))

        # Winners the frame could not serve are queued (with-queue variant)
        # or discarded; queueing changes the candidate rule, so the mirrors
        # resynchronise once the queue drains.
        if unserved and queue is not None:
            queue.extend(
                protocol.make_request_for_id(population, tid, frame)
                for tid in unserved
            )
            self._mirrors_dirty = True
        queued = len(queue) if queue is not None else 0

        # Execute the frame's grants: deterministic buffer pops now, one
        # deferred Bernoulli resolution per flush.  Row order matches the
        # per-frame grant columns (reserved, voice winners, data winners).
        record_index = len(self._records)
        record = [attempts, collisions, idle, allocated, queued, 0, 0]
        if drops:
            counted = 0
            for _tid, _dropped, in_window in drops:
                counted += in_window
            record[6] = counted
        self._records.append(record)

        if voice_rows or data_rows:
            chan_src = snapshot.snr_db if self._reuse_snr else snapshot.amplitude
            phy_rec = self._phy_rec
            phy_tids = self._phy_tids
            phy_counts = self._phy_counts
            phy_aux = self._phy_aux
            phy_voice = self._phy_voice
            phy_frames = self._phy_frames
            phy_chans = self._phy_chans
            phy_thrs = self._phy_thrs
            pop_voice = population.transmit_voice_pop
            for tid, capacity, throughput in voice_rows:
                n_transmitted, pre_window = pop_voice(tid, capacity)
                phy_rec.append(record_index)
                phy_tids.append(tid)
                phy_counts.append(n_transmitted)
                phy_aux.append(pre_window)
                phy_voice.append(True)
                phy_frames.append(frame)
                phy_chans.append(float(chan_src[tid]))
                phy_thrs.append(np.nan if throughput is None else throughput)
            for tid, capacity, throughput in data_rows:
                occupancy = int(occ_list[tid])
                phy_rec.append(record_index)
                phy_tids.append(tid)
                phy_counts.append(
                    capacity if capacity < occupancy else occupancy
                )
                phy_aux.append(capacity)
                phy_voice.append(False)
                phy_frames.append(frame)
                phy_chans.append(float(chan_src[tid]))
                phy_thrs.append(np.nan if throughput is None else throughput)
        if clock:
            clock.stop()

        if data_rows:
            # Data outcomes feed back into buffer state (only delivered
            # packets leave a data buffer), so the next frame's decisions
            # need them resolved — the flush boundary of the lookahead.
            self._flush_phy(clock)
        return True

    @kernel
    def _run_contention(self, n_minislots: int, ids=None, probs=None):
        """Pool-fed slotted contention, bit-identical to the live draws.

        Each round covers the remaining minislots against the current
        contender pool in one prefetched matrix; the first exactly-one-
        transmitter row ends the round (later rows would have been drawn
        against a smaller pool, so their prefetched draws are returned to
        the pool untouched) and the next round restarts after the winner.

        Without explicit ``ids``/``probs`` the mirror's candidate lists are
        used; callers running contention over a frame-local pool (DRMA's
        converted slots) pass their own aligned id list and probability
        array.  Either way the caller's list is never mutated — winners pop
        from a lazily created copy.
        """
        if ids is None:
            ids = self._cand_ids
            probs = self._cand_probs_arr
            if probs is None:
                probs = self._cand_probs_arr = np.asarray(
                    self._cand_probs, dtype=float
                )
        m = _metrics.METRICS
        if m.enabled:
            # Pure accumulation — no clock, no draw — so metrics stay
            # legal inside kernel bodies (KRN002 only bans *timing*).
            m.inc("contention.rounds", n_minislots)
        pool = self._pool
        k = len(ids)
        winners: List[int] = []
        attempts = collisions = idle = 0
        done = 0
        active_ids = ids
        while done < n_minislots:
            if k == 0:
                idle += n_minislots - done
                break
            rows = n_minislots - done
            draws = pool.take(rows * k).reshape(rows, k)
            counts, winner_row, winner_col = contention_round_scan(draws, probs)
            if winner_row < 0:
                attempts += int(counts.sum())
                zeros = int(np.count_nonzero(counts == 0))
                idle += zeros
                collisions += rows - zeros
                break
            pool.unwind((rows - winner_row - 1) * k)
            if winner_row:
                head = counts[:winner_row]
                attempts += int(head.sum())
                zeros = int(np.count_nonzero(head == 0))
                idle += zeros
                collisions += winner_row - zeros
            attempts += 1
            if active_ids is ids:
                active_ids = list(active_ids)
            winners.append(active_ids.pop(winner_col))
            probs = np.delete(probs, winner_col)
            k -= 1
            done += winner_row + 1
        return winners, attempts, collisions, idle

    def _run_auction(self):
        """RAMA's auction phase inline, draw-for-draw the per-frame kernel.

        At most one tie check plus one winner pick per auction slot, drawn
        directly from the protocol's shared MAC stream in the exact
        per-frame call order — the auction is inherently sequential (each
        slot's pool depends on the previous winners) so there is nothing to
        pool, and the runner's :class:`RandomPool` is never open during an
        auction frame (RAMA frames take no pooled draws), so the direct
        draws cannot interleave with a prefetch.
        """
        protocol = self.protocol
        rng = protocol.rng
        tie_probability = protocol.whole_id_tie_probability
        nv = self._nv
        remaining = list(self._cand_ids)
        voice_flags = [tid < nv for tid in remaining]
        winners: List[int] = []
        attempts = collisions = idle = 0
        for _ in range(self._auction_slots):
            n_remaining = len(remaining)
            if n_remaining == 0:
                idle += 1
                continue
            attempts += n_remaining
            pool = [
                tid for tid, voice in zip(remaining, voice_flags) if voice
            ] or remaining
            if rng.random() < tie_probability(len(pool)):
                collisions += 1
                continue
            winner = pool[int(rng.integers(len(pool)))]
            position = remaining.index(winner)
            remaining.pop(position)
            voice_flags.pop(position)
            winners.append(winner)
        return winners, attempts, collisions, idle

    def _slot_loop_frame(self, frame, snapshot, drops, clock) -> bool:
        """DRMA contended frame inline: cursor service + converted slots.

        Replicates ``DRMAProtocol.run_frame_batch`` decision for decision:
        reservation holders head a pending pool advanced by a cursor, every
        unassigned information slot converts into ``N_x`` request minislots
        (pool-fed, bit-identical prefixes), and winners re-enter the same
        frame's pending pool.  A data winner with a deep buffer can win —
        and be served — several converted slots of one frame; those
        duplicate grants adopt the engine's flush-between-duplicates
        discipline, so each later grant sees the buffer state (and the RNG
        draw boundaries) its earlier grants left, exactly like
        ``Engine._execute_grant_columns_segmented``.
        """
        if clock:
            clock.start("mac")
        protocol = self.protocol
        population = self.population
        queue = protocol.request_queue
        reservations = protocol.reservations
        occupancy_array = population.occupancy
        occ_list = (
            occupancy_array.tolist()
            if occupancy_array.shape[0] <= 256
            else occupancy_array
        )
        in_talkspurt = population.in_talkspurt
        nv = self._nv

        # Reservation release + pending pool (holders with packets, in
        # ascending id order — the reserved_ids order the kernel uses).
        pending: List[int] = []
        pending_res: List[bool] = []
        to_release = None
        for tid in self._holders:
            if occ_list[tid] > 0:
                pending.append(tid)
                pending_res.append(True)
            elif not in_talkspurt[tid]:
                if to_release is None:
                    to_release = []
                to_release.append(tid)
        if to_release is not None:
            for tid in to_release:
                reservations.release(tid)
                self._holders.remove(tid)
                self._holders_set.discard(tid)

        # Frame-local candidate pool.  The mirror's lists are never mutated
        # in place: the drop rule below rebuilds fresh lists, and the
        # per-minislot resolution pops winners from a lazily created copy.
        local_ids = self._cand_ids
        local_probs = self._cand_probs
        pool_take = self._pool.take

        minislots = self._convert_minislots
        chan_src = snapshot.snr_db if self._reuse_snr else snapshot.amplitude
        phy_rec = self._phy_rec
        phy_tids = self._phy_tids
        phy_counts = self._phy_counts
        phy_aux = self._phy_aux
        phy_voice = self._phy_voice
        phy_frames = self._phy_frames
        phy_chans = self._phy_chans
        phy_thrs = self._phy_thrs
        pop_voice = population.transmit_voice_pop

        # The frame's record is appended up front (zero-filled) because the
        # duplicate-grant discipline may flush mid-frame, and flushing
        # resolves deferred rows into their records.
        record = [0, 0, 0, 0, 0, 0, 0]
        if drops:
            counted = 0
            for _tid, _dropped, in_window in drops:
                counted += in_window
            record[6] = counted
        record_index = len(self._records)
        self._records.append(record)

        attempts = collisions = idle = allocated = 0
        cursor = 0
        frame_data_tids = None
        any_data = False
        for _ in range(self._info_slots):
            # Serve the next pending entry whose terminal still has packets
            # (buffer states are frozen during the frame, exactly like the
            # kernel's occupancy_list snapshot).
            served_id = -1
            is_reservation = False
            while cursor < len(pending):
                tid = pending[cursor]
                is_reservation = pending_res[cursor]
                cursor += 1
                if occ_list[tid] > 0:
                    served_id = tid
                    break
            if served_id >= 0:
                allocated += 1
                if served_id < nv:
                    if not is_reservation:
                        reservations.grant(served_id, frame)
                        insort(self._holders, served_id)
                        self._holders_set.add(served_id)
                        self._discard_candidate(served_id)
                    n_transmitted, pre_window = pop_voice(served_id, 1)
                    phy_rec.append(record_index)
                    phy_tids.append(served_id)
                    phy_counts.append(n_transmitted)
                    phy_aux.append(pre_window)
                    phy_voice.append(True)
                    phy_frames.append(frame)
                    phy_chans.append(float(chan_src[served_id]))
                    phy_thrs.append(np.nan)
                else:
                    if frame_data_tids is not None and served_id in frame_data_tids:
                        # Same-frame repeat grant: resolve everything
                        # deferred so far, then re-read the live buffer —
                        # the engine skips a repeat whose earlier grants
                        # drained the buffer (the slot stays allocated).
                        if clock:
                            clock.stop()
                        self._flush_phy(clock)
                        if clock:
                            clock.start("mac")
                        if int(occupancy_array[served_id]) <= 0:
                            continue
                    elif frame_data_tids is None:
                        frame_data_tids = {served_id}
                    else:
                        frame_data_tids.add(served_id)
                    any_data = True
                    phy_rec.append(record_index)
                    phy_tids.append(served_id)
                    phy_counts.append(1)
                    phy_aux.append(1)
                    phy_voice.append(False)
                    phy_frames.append(frame)
                    phy_chans.append(float(chan_src[served_id]))
                    phy_thrs.append(np.nan)
                continue

            # Idle information slot: convert it into N_x request minislots.
            # The pools here are tiny (a handful of contenders), so the
            # resolution runs on Python scalars over pooled draws — the
            # same doubles, comparisons and winner choices as the kernel's
            # per-minislot ``rng.random(size=k)`` calls.
            if not local_ids:
                idle += minislots
                continue
            ms_ids = local_ids
            ms_probs = local_probs
            won = None
            for _ in range(minislots):
                k = len(ms_ids)
                if k == 0:
                    idle += 1
                    continue
                n_transmitters = 0
                index = -1
                for position, draw in enumerate(pool_take(k).tolist()):
                    if draw < ms_probs[position]:
                        n_transmitters += 1
                        index = position
                attempts += n_transmitters
                if n_transmitters == 1:
                    if ms_ids is local_ids:
                        ms_ids = list(ms_ids)
                        ms_probs = list(ms_probs)
                    if won is None:
                        won = []
                    won.append(ms_ids.pop(index))
                    ms_probs.pop(index)
                elif n_transmitters == 0:
                    idle += 1
                else:
                    collisions += 1
            if not won:
                continue
            dropped = None
            for winner in won:
                pending.append(winner)
                pending_res.append(False)
                # A voice winner is about to obtain a reservation and stops
                # contending; a data winner keeps contending in later
                # converted slots while its (frozen) buffer runs deep.
                if winner < nv or occ_list[winner] <= 1:
                    if dropped is None:
                        dropped = set()
                    dropped.add(winner)
            if dropped is not None:
                kept_ids = []
                kept_probs = []
                for tid, probability in zip(local_ids, local_probs):
                    if tid not in dropped:
                        kept_ids.append(tid)
                        kept_probs.append(probability)
                local_ids = kept_ids
                local_probs = kept_probs

        # Requests that succeeded too late in the frame to get a slot.
        if queue is not None:
            leftovers = [
                protocol.make_request_for_id(population, pending[index], frame)
                for index in range(cursor, len(pending))
                if not pending_res[index]
            ]
            if leftovers:
                queue.extend(leftovers)
                self._mirrors_dirty = True
        record[0] = attempts
        record[1] = collisions
        record[2] = idle
        record[3] = allocated
        record[4] = len(queue) if queue is not None else 0
        if clock:
            clock.stop()

        if any_data:
            # Data outcomes feed back into buffer state, so the next
            # frame's decisions need them resolved.
            self._flush_phy(clock)
        return True

    @kernel
    def _csi_frame(self, frame, snapshot, drops, clock) -> bool:
        """CHARISMA frame inline (fast RNG mode): pooled CSI noise.

        Replicates ``CharismaProtocol.run_frame_batch`` on an empty-queue
        frame: the fast matrix contention kernel against the contention
        child stream, one batched CSI estimate over reservation holders +
        winners — standard normals prefetched per block from the dedicated
        estimation stream and scaled by the amplitude-independent noise
        std, exactly the values ``estimate_amplitudes`` would produce —
        then the frame's shared mode lookup, the stable priority ranking
        and the ranked allocation walk.  Voice grants defer their PHY
        outcome to the block flush; frames with data grants flush at frame
        end because data outcomes feed back into buffer state.  Parity
        CHARISMA never reaches this path (``supports_macro_lookahead`` is
        False without the dedicated CSI stream) and keeps its bit-exact
        per-frame fallback.
        """
        if clock:
            clock.start("mac")
        protocol = self.protocol
        population = self.population
        queue = protocol.request_queue
        reservations = protocol.reservations
        occupancy_array = population.occupancy
        occ_list = (
            occupancy_array.tolist()
            if occupancy_array.shape[0] <= 256
            else occupancy_array
        )
        in_talkspurt = population.in_talkspurt
        nv = self._nv

        # Reservation release + the holders' auto-generated requests
        # (ascending id — the ``reserved_ids`` order).
        reserved: List[int] = []
        to_release = None
        for tid in self._holders:
            if occ_list[tid] > 0:
                reserved.append(tid)
            elif not in_talkspurt[tid]:
                if to_release is None:
                    to_release = []
                to_release.append(tid)
        if to_release is not None:
            for tid in to_release:
                reservations.release(tid)
                self._holders.remove(tid)
                self._holders_set.discard(tid)

        # Request phase: the fast matrix kernel draws directly from the
        # contention child stream (the runner's uniform pool never opens
        # during a CSI-scheduled frame, so nothing can interleave).  A
        # quiet pool short-circuits to the kernel's own empty-input result
        # — no draw, every minislot idle — without paying the call.
        if self._cand_ids:
            probs = self._cand_probs_arr
            if probs is None:
                probs = self._cand_probs_arr = np.asarray(
                    self._cand_probs, dtype=float
                )
            contention = run_contention_ids(
                self._cand_ids,
                probs,
                self._auction_slots,
                protocol.contention_rng,
                fast=True,
            )
            winner_ids = contention.winner_ids
            attempts = contention.attempts
            collisions = contention.collisions
            idle_slots = contention.idle_slots
        else:
            winner_ids = []
            attempts = collisions = 0
            idle_slots = self._auction_slots
            m = _metrics.METRICS
            if m.enabled:
                m.inc("contention.rounds", idle_slots)

        record_index = len(self._records)
        record = [attempts, collisions, idle_slots, 0, 0, 0, 0]
        if drops:
            counted = 0
            for _tid, _dropped, in_window in drops:
                counted += in_window
            record[6] = counted
        self._records.append(record)

        n_reserved = len(reserved)
        all_ids = reserved + winner_ids if winner_ids else reserved
        n_pending = len(all_ids)
        if n_pending == 0:
            if clock:
                clock.stop()
            return True

        # CSI estimation: one pooled noise draw for holders + winners.
        tid_arr = np.asarray(all_ids, dtype=np.int64)
        amplitudes = snapshot.amplitude[tid_arr]
        std = self._csi_std
        if std == 0.0:
            estimates = amplitudes
        else:
            estimates = amplitudes + std * self._csi_pool.take(n_pending)
            np.maximum(estimates, 0.0, out=estimates)

        # Mode lookup, inline: ``searchsorted(thresholds) - 1`` is the mode
        # index and the capacity LUTs are addressed at ``index + 1``, so the
        # raw searchsorted count is itself the LUT row.  Estimates of 0.0
        # (clamped noise) log to -inf and land on the outage row.
        with np.errstate(divide="ignore"):
            snr_db = self._csi_mean_snr + 20.0 * np.log10(estimates)
        indices_p1 = np.searchsorted(self._csi_thresholds, snr_db, side="right")
        throughput = self._thr_by_idx[indices_p1]
        per_slot = self._packs_by_idx[indices_p1]

        # Priority metric, inline over the same gathers: every pending row
        # arrived this frame, so the data urgency term is exactly 0 and the
        # voice horizon is the head-of-line packet's frames-to-deadline —
        # an integer in [0, deadline], served from the pow() LUT.  The
        # term-by-term composition (weighted + urgency + offset) matches
        # ``priorities_columns`` float for float.
        voice = tid_arr < nv
        head = population.head_created[tid_arr]
        horizon = np.maximum(0, head + (self._csi_vdl - frame))
        urgency = np.where(voice, self._csi_urg_lut[horizon], 0.0)
        alpha_voice, alpha_data = self._csi_alpha
        if alpha_voice == alpha_data:
            weighted = alpha_voice * throughput
        else:
            weighted = np.where(voice, alpha_voice, alpha_data) * throughput
        offset = np.where(voice, self._csi_voffset, 0.0)
        values = weighted + urgency + offset
        order = np.argsort(-values, kind="stable")

        # Ranked allocation walk, inline: decision-for-decision the
        # allocator's ``allocate_columns`` over the same ranked rows
        # (voice takes one slot, data packs ceil(occupancy/packets) slots,
        # zero-packet outage defers unless a near-deadline voice request
        # escapes at the most robust mode).
        slots_left = self._csi_slots
        margin = self._csi_margin
        per_list = per_slot.tolist()
        thr_list = throughput.tolist()
        g_tids: List[int] = []
        g_nslots: List[int] = []
        g_caps: List[int] = []
        g_thrs: List[float] = []
        unserved_rows: List[int] = []
        deferred_rows: List[int] = []
        for row in order.tolist():
            tid = all_ids[row]
            occupancy = occ_list[tid]
            if occupancy == 0:
                continue
            if slots_left <= 0:
                unserved_rows.append(row)
                continue
            packets = per_list[row]
            mode_throughput = thr_list[row]
            if packets == 0:
                if tid < nv and head[row] >= 0 and horizon[row] <= margin:
                    packets, mode_throughput = 1, self._csi_lowest_thr
                else:
                    deferred_rows.append(row)
                    continue
            if tid < nv:
                n_slots = 1
            else:
                needed = -(-int(occupancy) // packets) if packets > 1 else int(
                    occupancy
                )
                n_slots = needed if needed < slots_left else slots_left
                if n_slots < 1:
                    n_slots = 1
            g_tids.append(tid)
            g_nslots.append(n_slots)
            g_caps.append(packets * n_slots)
            g_thrs.append(mode_throughput)
            slots_left -= n_slots

        # Newly served voice winners acquire a reservation; only rows
        # after the reservation-holder prefix can be newly served.
        if g_tids and n_pending > n_reserved:
            allocated_ids = set(g_tids)
            for position in range(n_reserved, n_pending):
                tid = all_ids[position]
                if tid < nv and tid in allocated_ids:
                    reservations.grant(tid, frame)
                    insort(self._holders, tid)
                    self._holders_set.add(tid)
                    self._discard_candidate(tid)

        # Unserved / deferred requests go back to the queue (with-queue
        # variant) or are dropped; the request-column pool is materialised
        # only on this rare path — the common all-served frame never builds
        # it.  Queueing flips the candidate rule, so the mirrors
        # resynchronise once the queue drains.
        if (unserved_rows or deferred_rows) and queue is not None:
            pending = protocol._pending_columns(
                population,
                np.asarray(reserved, dtype=np.int64),
                np.asarray(winner_ids, dtype=np.int64),
                estimates,
                frame,
            )
            if protocol.queue_unserved_rows(
                pending, unserved_rows + deferred_rows
            ):
                self._mirrors_dirty = True
        record[4] = len(queue) if queue is not None else 0

        # Execute the grants: deterministic voice pops now, one deferred
        # Bernoulli resolution per flush, rows in grant (priority) order —
        # exactly the engine executor's element order.
        any_data = False
        if g_tids:
            record[3] = sum(g_nslots)
            chan_src = snapshot.snr_db if self._reuse_snr else snapshot.amplitude
            phy_rec = self._phy_rec
            phy_tids = self._phy_tids
            phy_counts = self._phy_counts
            phy_aux = self._phy_aux
            phy_voice = self._phy_voice
            phy_frames = self._phy_frames
            phy_chans = self._phy_chans
            phy_thrs = self._phy_thrs
            pop_voice = population.transmit_voice_pop
            for position, tid in enumerate(g_tids):
                capacity = g_caps[position]
                phy_rec.append(record_index)
                phy_tids.append(tid)
                if tid < nv:
                    n_transmitted, pre_window = pop_voice(tid, capacity)
                    phy_counts.append(n_transmitted)
                    phy_aux.append(pre_window)
                    phy_voice.append(True)
                else:
                    any_data = True
                    occupancy = int(occ_list[tid])
                    phy_counts.append(
                        capacity if capacity < occupancy else occupancy
                    )
                    phy_aux.append(capacity)
                    phy_voice.append(False)
                phy_frames.append(frame)
                phy_chans.append(float(chan_src[tid]))
                phy_thrs.append(g_thrs[position])
        if clock:
            clock.stop()

        if any_data:
            # Data outcomes feed back into buffer state, so the next
            # frame's decisions need them resolved.
            self._flush_phy(clock)
        return True

    # ------------------------------------------------------- fallback frame
    def _fallback_frame(self, frame, snapshot, drops, clock) -> None:
        """One frame through the protocol's own kernel, streams realigned."""
        engine = self.engine
        population = self.population
        self._pool.close()
        if self._csi_pool is not None:
            self._csi_pool.close()
        self._flush_phy(clock)
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
        """Resolve all deferred transmissions in one batched PHY draw."""
        if not self._phy_tids:
            return
        if clock:
            clock.start("phy")
        counts = np.asarray(self._phy_counts, dtype=np.int64)
        chans = np.asarray(self._phy_chans, dtype=float)
        throughputs = (
            np.asarray(self._phy_thrs, dtype=float) if self._adaptive else None
        )
        delivered = self.error_model.transmit_batch(
            None if self._reuse_snr else chans,
            counts,
            throughputs,
            snr_db=chans if self._reuse_snr else None,
        )
        population = self.population
        records = self._records
        is_voice = np.asarray(self._phy_voice, dtype=bool)
        n_voice_rows = int(is_voice.sum())
        if n_voice_rows:
            # All deferred voice rows resolve through one accel pass —
            # per-row arithmetic and per-terminal accumulation fused; only
            # the (rare) errored rows loop back for record attribution.
            voice_rows = (
                np.arange(is_voice.shape[0])
                if n_voice_rows == is_voice.shape[0]
                else np.nonzero(is_voice)[0]
            )
            tids = np.asarray(self._phy_tids, dtype=np.int64)
            aux = np.asarray(self._phy_aux, dtype=np.int64)
            errored_rows, errors = population.resolve_voice_outcomes(
                tids[voice_rows],
                counts[voice_rows],
                aux[voice_rows],
                delivered[voice_rows],
            )
            phy_rec = self._phy_rec
            for k in errored_rows.tolist():
                records[phy_rec[int(voice_rows[k])]][6] += int(errors[k])
        if n_voice_rows < is_voice.shape[0]:
            occupancy = population.occupancy
            mirrors_ok = not self._mirrors_dirty
            transmit = population.transmit
            delivered_list = delivered.tolist()
            for j in np.nonzero(~is_voice)[0].tolist():
                tid = self._phy_tids[j]
                n_delivered = delivered_list[j]
                transmit(tid, self._phy_aux[j], n_delivered, self._phy_frames[j])
                records[self._phy_rec[j]][5] += n_delivered
                if mirrors_ok and n_delivered and occupancy[tid] == 0:
                    self._discard_candidate(tid)
        self._phy_rec.clear()
        self._phy_tids.clear()
        self._phy_counts.clear()
        self._phy_aux.clear()
        self._phy_voice.clear()
        self._phy_frames.clear()
        self._phy_chans.clear()
        self._phy_thrs.clear()
        if clock:
            clock.stop()

    def _commit_records(self, clock) -> None:
        if not self._records:
            return
        if clock:
            clock.start("metrics")
        self.collector.record_block(self._records)
        self._records = []
        if clock:
            clock.stop()

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
        if generated is not None:
            holders_set = self._holders_set
            for tid in generated:
                if tid not in holders_set:
                    self._add_candidate(tid, self._voice_p)
        if bursts is not None:
            for tid, _size in bursts:
                self._add_candidate(tid, self._data_p)
        if drops:
            occupancy = self.population.occupancy
            for tid, _dropped, _counted in drops:
                if occupancy[tid] == 0:
                    self._discard_candidate(tid)

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
