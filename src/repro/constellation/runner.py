"""Step N beam shards with cross-beam coupling at block barriers.

The :class:`ConstellationRunner` owns one :class:`~repro.constellation.shard.
BeamShard` per beam and advances them through the existing columnar/macro
kernels.  Between macro blocks — and only there — it applies the cross-beam
couplings (interference offsets, terminal handover).

With more than one worker, :meth:`ConstellationRunner.run` forks worker
processes.  Each owns a fixed, contiguous bucket of shards for the whole
run, and the calling process (the coordinator) steps the first bucket
itself.  Between barriers a worker steps its shards without talking to
anyone.  At a barrier it sends its beams' busy loads and handover-eligible
terminals to the coordinator, which plans both couplings exactly as serial
stepping does (in beam order, from the one handover stream), and receives
its interference offsets and the terminals to export, then the states to
import.  At the end each worker sends its shards back one at a time, so
``runner.shards`` holds every beam's final engine.  Results are therefore
bit-identical to serial stepping at any worker count.

Shards step in the calling process, one after another, unless forking is
both useful and safe: more than one worker, a ``fork`` start method, no
other live thread (forking a multi-threaded process can deadlock), not
inside a ``multiprocessing`` child (executor pool workers already use the
cores, and a daemonic process cannot have children), and no installed
tracer or enabled metrics registry (both record into this process only).

When no coupling is active (one beam, or ``handover_rate == 0`` and
``coupling_db == 0``) each shard advances whole warm-up/measured phases in
single ``run_frames`` calls — the exact call pattern of
``UplinkSimulationEngine.run()`` — which is what makes the single-beam
degenerate case bit-identical to the plain :class:`~repro.sim.scenario.
Scenario` path in parity RNG mode.
"""

from __future__ import annotations

import os
import threading
import traceback
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from repro.config import SimulationParameters
from repro.constellation.coupling import (
    HandoverSwap,
    interference_offsets,
    plan_handovers,
)
from repro.constellation.scenario import ConstellationScenario
from repro.constellation.shard import BeamShard
from repro.metrics.collector import MacStats
from repro.metrics.data import DataMetrics
from repro.metrics.voice import VoiceMetrics
from repro.obs import clock as _clock
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim.results import SimulationResult
from repro.sim.rng import child_stream
from repro.traffic.population import TerminalMigrationState

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

__all__ = [
    "ConstellationResult",
    "ConstellationRunner",
    "resolve_workers",
    "run_constellation",
    "usable_cpus",
    "WORKERS_ENV",
]

#: Environment override for the shard-stepping worker count.
WORKERS_ENV = "REPRO_CONSTELLATION_WORKERS"

#: A terminal slot, ``(beam, local_id)``.
_Slot = Tuple[int, int]

#: One beam's barrier report: its busy load and its handover-eligible
#: terminals, each ``None`` while that coupling is off.
_Report = Tuple[Optional[float], Optional[List[int]]]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS can
    say, else the machine's CPU count.  Every default worker count uses it,
    so a pinned process never starts more workers than it may run on.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def resolve_workers(
    scenario: ConstellationScenario, n_workers: Optional[int] = None
) -> int:
    """Worker count: explicit arg, else env, else the usable CPUs (at most 8).

    Never more workers than beams.
    """
    if n_workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            n_workers = int(env)
    if n_workers is None:
        n_workers = min(scenario.n_beams, usable_cpus(), 8)
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    return min(int(n_workers), scenario.n_beams)


def _can_fork() -> bool:
    """Whether forking shard workers is safe here (see the module docstring)."""
    import multiprocessing

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
        and multiprocessing.parent_process() is None
        and _trace.TRACER is None
        and not _metrics.METRICS.enabled
    )


@dataclass(frozen=True)
class _WorkerFailure:
    """What a worker process sends, in place of its next message, on failure."""

    message: str
    traceback: str


class _Worker:
    """The coordinator's handle on one worker process and its beams."""

    def __init__(self, process: BaseProcess, conn: Connection, beams: range) -> None:
        self.process = process
        self.conn = conn
        self.beams = beams

    def receive(self) -> Any:
        """The worker's next message; raises if the worker failed or died."""
        beams = f"beams {self.beams.start}-{self.beams.stop - 1}"
        try:
            message = self.conn.recv()
        except EOFError:
            raise RuntimeError(
                f"the constellation worker process for {beams} exited "
                f"without reporting"
            ) from None
        if isinstance(message, _WorkerFailure):
            raise RuntimeError(
                f"{message.message} (in the worker process for {beams})\n\n"
                f"{message.traceback}"
            )
        return message


@dataclass(frozen=True)
class ConstellationResult:
    """Merged plus per-beam results of one constellation run.

    Attributes
    ----------
    scenario:
        The constellation that was simulated.
    merged:
        Constellation-aggregate :class:`SimulationResult` (counters summed,
        delay samples concatenated, shared frame window).  This is what
        flows into the store/serialization path.
    beams:
        One per-beam :class:`SimulationResult`, in beam order.
    handovers:
        Total terminal migrations executed across the whole run.
    n_workers:
        Processes that stepped the shards: 1 when they all stepped in the
        calling process.
    """

    scenario: ConstellationScenario
    merged: SimulationResult
    beams: Tuple[SimulationResult, ...]
    handovers: int
    n_workers: int

    def summary(self) -> Dict[str, object]:
        """Flat summary of the merged result plus constellation extras."""
        summary: Dict[str, object] = dict(self.merged.summary())
        summary["n_beams"] = self.scenario.n_beams
        summary["handovers"] = self.handovers
        return summary


class ConstellationRunner:
    """Advance every beam shard through warm-up and measurement."""

    def __init__(
        self,
        scenario: ConstellationScenario,
        params: Optional[SimulationParameters] = None,
        n_workers: Optional[int] = None,
    ) -> None:
        self.scenario = scenario
        self.params = params if params is not None else SimulationParameters()
        self.n_workers = resolve_workers(scenario, n_workers)
        self.shards: List[BeamShard] = [
            BeamShard(beam, scenario, self.params)
            for beam in range(scenario.n_beams)
        ]
        # Handover decisions are drawn serially by the coordinator from a
        # dedicated labelled stream — independent of every beam's streams
        # and of the worker count.
        self._handover_rng = child_stream(
            np.random.SeedSequence(scenario.seed),  # master-seed child, labelled below; no ambient entropy. lint: allow[RNG001]
            "constellation.handover",
        )
        self.handovers = 0
        #: Seconds each beam's shard spent stepping, measured where it steps.
        self._step_seconds = np.zeros(scenario.n_beams, dtype=np.float64)

    # ------------------------------------------------------------------ API
    def run(self) -> ConstellationResult:
        """Run warm-up plus the measured period on every shard."""
        n_processes = self._run_forked(
            self.n_workers if self.n_workers > 1 and _can_fork() else 1
        )
        beams = tuple(shard.result() for shard in self.shards)
        merged = self._merge(beams)
        self._report_load()
        _metrics.METRICS.gauge("constellation.handovers", float(self.handovers))
        return ConstellationResult(
            scenario=self.scenario,
            merged=merged,
            beams=beams,
            handovers=self.handovers,
            n_workers=n_processes,
        )

    # ------------------------------------------------------------- stepping
    def _advance(
        self, shards: Sequence[BeamShard], barrier: Callable[[], None]
    ) -> None:
        """Carry ``shards`` through warm-up and measurement.

        A coupled run steps ``macro_frames`` blocks and calls ``barrier``
        between consecutive blocks, across the warm-up/measured boundary
        too.  An uncoupled run advances each phase in one call — the exact
        frame chunking of ``engine.run()``, preserving single-beam
        bit-identity with the plain Scenario path.
        """
        scenario = self.scenario
        block = scenario.macro_frames if scenario.has_coupling else None
        phases = (
            scenario.warmup_frames(self.params),
            scenario.measured_frames(self.params),
        )
        stepped = False
        for phase, remaining in enumerate(phases):
            if phase:
                for shard in shards:
                    shard.begin_measurement()
            while remaining > 0:
                step = remaining if block is None else min(block, remaining)
                if block is not None and stepped:
                    barrier()
                self._step(shards, step)
                stepped = True
                remaining -= step

    def _step(self, shards: Sequence[BeamShard], n_frames: int) -> None:
        """Advance each shard by ``n_frames``, timing it; failures name the beam."""
        seconds = self._step_seconds
        for shard in shards:
            started = _clock.now()
            try:
                shard.run_frames(n_frames)
            except Exception as exc:
                raise RuntimeError(
                    f"constellation beam {shard.beam} failed: {exc!r}"
                ) from exc
            seconds[shard.beam] += _clock.now() - started

    # -------------------------------------------------------------- workers
    def _run_forked(self, n_buckets: int) -> int:
        """Step the first of ``n_buckets`` contiguous shard buckets here
        and every other one in a forked worker (one bucket forks nothing).

        Returns the number of processes that stepped shards.
        """
        own, *others = [
            range(int(bucket[0]), int(bucket[-1]) + 1)
            for bucket in np.array_split(np.arange(len(self.shards)), n_buckets)
        ]
        workers: List[_Worker] = []
        try:
            if others:
                import multiprocessing

                context = multiprocessing.get_context("fork")
                for beams in others:
                    conn, child_conn = context.Pipe()
                    coordinator_ends = [worker.conn for worker in workers] + [conn]
                    process = context.Process(
                        target=self._work,
                        args=(beams, child_conn, coordinator_ends),
                        name=f"constellation-beams-{beams.start}-{beams.stop - 1}",
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    workers.append(_Worker(process, conn, beams))
            local = self.shards[own.start:own.stop]
            self._advance(local, lambda: self._couple(local, workers))
            for worker in workers:
                for beam in worker.beams:
                    self.shards[beam], self._step_seconds[beam] = worker.receive()
        except BaseException:
            for worker in workers:
                worker.process.terminate()
            raise
        finally:
            for worker in workers:
                worker.process.join()
                worker.conn.close()
        return 1 + len(workers)

    def _work(
        self, beams: range, conn: Connection, coordinator_ends: Sequence[Connection]
    ) -> None:
        """Worker-process body: step ``beams``, then send their shards back."""
        # Close the coordinator's pipe ends this fork inherited, so that a
        # dead coordinator reads as end-of-file here.
        for end in coordinator_ends:
            end.close()
        local = self.shards[beams.start:beams.stop]
        try:
            self._advance(local, lambda: self._answer_barrier(local, conn))
            for shard in local:
                conn.send((shard, float(self._step_seconds[shard.beam])))
        except Exception as exc:
            summary = "".join(traceback.format_exception_only(type(exc), exc))
            conn.send(_WorkerFailure(summary.strip(), traceback.format_exc()))

    # ----------------------------------------------------------- coupling
    def _couple(self, local: Sequence[BeamShard], workers: Sequence[_Worker]) -> None:
        """Exchange cross-beam state at a macro-block barrier.

        ``local`` are the first beams, stepped in this process; every worker
        steps the next contiguous bucket, so the gathered reports are in
        beam order and the plan is the serial one.
        """
        scenario = self.scenario
        reports = self._report(local)
        for worker in workers:
            reports += worker.receive()
        offsets: Optional[np.ndarray] = None
        if scenario.coupling_db > 0.0:
            loads = np.array([load for load, _ in reports], dtype=np.float64)
            offsets = interference_offsets(
                loads, scenario.reuse_factor, scenario.coupling_db
            )
        swaps: List[HandoverSwap] = []
        if scenario.handover_rate > 0.0:
            eligible = [cast(List[int], ids) for _, ids in reports]
            swaps = plan_handovers(
                eligible, scenario.handover_rate, self._handover_rng
            )
        partner: Dict[_Slot, _Slot] = {}
        for slot_a, slot_b in swaps:
            partner[slot_a], partner[slot_b] = slot_b, slot_a
        # Each process's swapped slots, in swap order: index 0 holds this
        # process's, index i the i-th worker's.
        starts = [worker.beams.start for worker in workers]
        slots: List[List[_Slot]] = [[] for _ in range(len(workers) + 1)]
        for slot in partner:
            slots[bisect_right(starts, slot[0])].append(slot)

        for worker, moving in zip(workers, slots[1:]):
            beams = worker.beams
            worker.conn.send((
                None if offsets is None else offsets[beams.start:beams.stop],
                moving,
            ))
        self._apply_offsets(local, None if offsets is None else offsets[:len(local)])
        states = dict(zip(slots[0], self._export(slots[0])))
        for worker, moving in zip(workers, slots[1:]):
            if moving:
                states.update(zip(moving, worker.receive()))
        for worker, moving in zip(workers, slots[1:]):
            if moving:
                worker.conn.send([states[partner[slot]] for slot in moving])
        self._import(slots[0], [states[partner[slot]] for slot in slots[0]])
        self.handovers += len(swaps)
        if swaps:
            _metrics.METRICS.inc("constellation.handovers.block", len(swaps))

    def _answer_barrier(self, local: Sequence[BeamShard], conn: Connection) -> None:
        """A worker's side of :meth:`_couple`."""
        conn.send(self._report(local))
        offsets, moving = conn.recv()
        self._apply_offsets(local, offsets)
        if moving:
            conn.send(self._export(moving))
            self._import(moving, conn.recv())

    def _report(self, shards: Sequence[BeamShard]) -> List[_Report]:
        """The barrier reports of ``shards``, in their order."""
        interfere = self.scenario.coupling_db > 0.0
        handover = self.scenario.handover_rate > 0.0
        return [
            (
                shard.busy_load() if interfere else None,
                shard.eligible_handover_ids() if handover else None,
            )
            for shard in shards
        ]

    @staticmethod
    def _apply_offsets(
        shards: Sequence[BeamShard], offsets: Optional[np.ndarray]
    ) -> None:
        if offsets is not None:
            for shard, offset in zip(shards, offsets):
                shard.set_interference_db(float(offset))

    def _export(self, slots: Sequence[_Slot]) -> List[TerminalMigrationState]:
        return [self.shards[beam].export_terminal(lid) for beam, lid in slots]

    def _import(
        self, slots: Sequence[_Slot], states: Sequence[TerminalMigrationState]
    ) -> None:
        for (beam, lid), state in zip(slots, states):
            self.shards[beam].import_terminal(lid, state)

    def _report_load(self) -> None:
        """Gauge per-beam stepping-time imbalance (max over mean)."""
        seconds = self._step_seconds
        mean = float(seconds.mean()) if seconds.size else 0.0
        imbalance = float(seconds.max()) / mean if mean > 0.0 else 1.0
        _metrics.METRICS.gauge("constellation.load_imbalance", imbalance)

    # -------------------------------------------------------------- merge
    def _merge(self, beams: Tuple[SimulationResult, ...]) -> SimulationResult:
        """Fold per-beam results into one constellation-wide result."""
        return SimulationResult(
            scenario=cast(Any, self.scenario),
            voice=VoiceMetrics.combine([beam.voice for beam in beams]),
            data=DataMetrics.combine([beam.data for beam in beams]),
            mac=MacStats.combine([beam.mac for beam in beams]),
        )


def run_constellation(
    scenario: ConstellationScenario,
    params: Optional[SimulationParameters] = None,
    n_workers: Optional[int] = None,
) -> ConstellationResult:
    """Build a :class:`ConstellationRunner`, run it, return its result."""
    return ConstellationRunner(scenario, params, n_workers=n_workers).run()
