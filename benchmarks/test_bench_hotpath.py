"""Hot-path benchmark: in-session frame-loop assertions.

Times the 100-terminal reference workload (80 voice + 20 data terminals)
for every protocol and asserts the qualitative contracts of the frame loop,
all measured in the same session so machine drift cancels out:

* ``macro_over_columnar`` — blocks of 64 frames against one-frame blocks
  (chosen through the engine by ``tests.utils.run_in_blocks``), in the RNG mode
  recorded as ``macro_rng_mode``: parity for most, **fast** for CHARISMA,
  whose pooled CSI noise only exists in fast mode.  Every current protocol
  must beat one-frame blocks by more than 1.5x, decided by a sequential
  test on alternating pairs (see :func:`measure`);
* ``dispatches_per_frame`` — measured ``@kernel(batch=True)`` entries per
  frame per phase (``enable_phase_timing(count_dispatches=True)``) for
  one-frame blocks and blocks of 64; the blocks of 64 must need fewer;
* ``phase_split`` — the engine's own per-phase timers (traffic / channel /
  MAC / PHY / metrics fractions per protocol, parity mode); the MAC phase
  must stay under three quarters of the frame.

The tests print their tables and write no file; ``perfbench/`` (see its
README) is the benchmark of record.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from tests.utils import run_in_blocks

pytestmark = pytest.mark.slow

PARAMS = SimulationParameters()

#: The reference workload: 100 terminals at the paper's 80/20 voice/data mix.
N_VOICE = 80
N_DATA = 20
SEED = 1
DURATION_S = 1.0
WARMUP_S = 0.25

#: Alternating pairs per protocol in the ``macro_over_columnar`` test: at
#: least ``MIN_PAIRS``, at most ``MAX_PAIRS`` (undecided there = fail).
MIN_PAIRS = 6
MAX_PAIRS = 30
#: Coverage of the distribution-free interval on the median pair ratio.
CONFIDENCE = 0.95
#: Blocks of 64 must beat one-frame blocks by more than this factor.
MACRO_FLOOR = 1.5

#: The thinnest MAC layer (one competitive slot per frame, no request
#: queue), which isolates the frame-loop cost.
REFERENCE_PROTOCOL = "rmav"


#: Block size the ``macro`` legs measure: the engine's own
#: ``BLOCK_FRAMES``, which default runs step (bit-identical to one-frame
#: blocks).
MACRO_FRAMES = 64

#: Protocols whose macro stepping is a hard performance contract: each
#: must beat one-frame blocks by more than ``MACRO_FLOOR`` in-session
#: (measured in the RNG mode ``_macro_rng_mode`` names).
LOOKAHEAD_PROTOCOLS = (
    "charisma", "drma", "dtdma_fr", "dtdma_vr", "rama", "rmav",
)


def _build_engine(protocol: str, rng_mode: str, seed: int = SEED):
    scenario = Scenario(
        protocol=protocol,
        n_voice=N_VOICE,
        n_data=N_DATA,
        duration_s=DURATION_S,
        warmup_s=WARMUP_S,
        seed=seed,
        rng_mode=rng_mode,
    )
    return UplinkSimulationEngine(scenario, PARAMS)


def _frames_per_second(protocol: str, rng_mode: str = "parity",
                       block_frames: int = 1) -> float:
    """Run once in blocks of ``block_frames``; return frames per CPU second."""
    engine = _build_engine(protocol, rng_mode)
    start = time.process_time()
    run_in_blocks(engine, block_frames)
    return engine.frame_index / (time.process_time() - start)


def _macro_rng_mode(protocol: str) -> str:
    """The RNG mode a protocol's macro pair is measured in.

    CHARISMA pools its CSI estimation noise over a block only in fast mode,
    so its pair is a fast/fast quotient; every other protocol's is
    parity/parity (and bit-identical across block sizes).
    """
    return "fast" if protocol == "charisma" else "parity"


def median_interval(values, confidence: float = CONFIDENCE):
    """Distribution-free confidence interval on the median of ``values``.

    The order statistics ``[x_(k), x_(n+1-k)]`` cover the median with
    probability ``1 - 2 P(Binomial(n, 1/2) <= k - 1)`` whatever the
    distribution; ``k`` is the largest rank that keeps that coverage at
    least ``confidence``.  ``None`` when no rank does (too few values).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = 0
    tail = 0
    for k in range(1, n // 2 + 1):
        tail += math.comb(n, k - 1)
        if 1.0 - 2.0 * tail / 2**n < confidence:
            break
        rank = k
    if rank == 0:
        return None
    return ordered[rank - 1], ordered[n - rank]


def measure_pairs(protocol: str, mode: str) -> dict:
    """One protocol's ``macro_over_columnar`` by a sequential test.

    Alternating pairs of back-to-back runs (which side runs first
    alternates, so a CPU frequency phase shifts both sides of a pair alike)
    are added one at a time.  From ``MIN_PAIRS`` on, the test stops as
    soon as the :func:`median_interval` of the pair ratios lies wholly
    above ``MACRO_FLOOR`` (cleared) or wholly below it; at ``MAX_PAIRS``
    an undecided floor counts as not cleared.  ``macro_over_columnar`` is
    the median ratio.
    """
    per_frame, macro, ratios = [], [], []
    interval = None
    while len(ratios) < MAX_PAIRS:
        sides = [(per_frame, 1), (macro, MACRO_FRAMES)]
        for runs, block_frames in sides[::-1] if len(ratios) % 2 else sides:
            runs.append(
                _frames_per_second(protocol, mode, block_frames=block_frames))
        ratios.append(macro[-1] / per_frame[-1])
        if len(ratios) >= MIN_PAIRS:
            interval = median_interval(ratios)
            if interval is not None and (
                interval[0] > MACRO_FLOOR or interval[1] < MACRO_FLOOR
            ):
                break
    return {
        "columnar_fps": round(max(per_frame), 1),
        "macro_fps": round(max(macro), 1),
        "macro_rng_mode": mode,
        "macro_over_columnar": round(statistics.median(ratios), 3),
        "pairs": len(ratios),
        "interval": tuple(round(bound, 3) for bound in interval),
        "floor_cleared": interval[0] > MACRO_FLOOR,
    }


def measure() -> dict:
    """One-frame blocks vs blocks of 64 per protocol (:func:`measure_pairs`).

    The quotient compares the two block sizes *in the same RNG mode*
    (recorded per protocol as ``macro_rng_mode``).  A fixed median of five
    pairs read DRMA anywhere from 1.40 to 1.80 against the 1.5 floor on a
    2-vCPU box; the sequential test keeps sampling until the floor is
    decided at 95 % confidence.
    """
    return {
        protocol: measure_pairs(protocol, _macro_rng_mode(protocol))
        for protocol in available_protocols()
    }


def measure_dispatches() -> dict:
    """Measured batch-kernel dispatches per frame, per phase, per mode.

    A short instrumented pass on a separate engine (the per-kernel entry
    wrappers installed by ``repro.obs.dispatch`` are cheap but not free,
    so counting never contaminates the fps numbers) — the frame loop's
    dispatch floor tracked, not inferred.  Counts are entries into
    ``@kernel(batch=True)`` functions, not raw NumPy C calls, so they are
    stable across NumPy versions.
    """
    dispatches = {}
    for protocol in available_protocols():
        row = {}
        for label, block_frames in (("columnar", 1), ("macro", MACRO_FRAMES)):
            engine = _build_engine(protocol, "parity")
            engine.enable_phase_timing(count_dispatches=True)
            try:
                for _ in range(512 // block_frames):
                    engine.run_frames(block_frames)
                counts = dict(engine.dispatch_counts)
            finally:
                engine.disable_phase_timing()
            per_phase = {
                phase: round(calls / 512, 2) for phase, calls in counts.items()
            }
            per_phase["total"] = round(sum(counts.values()) / 512, 2)
            row[label] = per_phase
        dispatches[protocol] = row
    return dispatches


def measure_phase_split() -> dict:
    """Per-protocol traffic/channel/MAC/PHY/metrics fractions (parity mode)."""
    split = {}
    for protocol in available_protocols():
        engine = _build_engine(protocol, "parity")
        phases = engine.enable_phase_timing()
        engine.run()
        total = sum(phases.values()) or 1.0
        split[protocol] = {
            name: round(seconds / total, 4) for name, seconds in phases.items()
        }
    return split


def test_bench_hotpath():
    protocols = measure()
    phase_split = measure_phase_split()
    dispatches = measure_dispatches()

    table = "\n".join(
        f"  {name:10s} 1-frame blocks {row['columnar_fps']:9.0f} fps   "
        f"64-frame blocks {row['macro_fps']:9.0f} fps "
        f"({row['macro_over_columnar']:.2f}x, {row['macro_rng_mode']}, "
        f"{row['pairs']} pairs, 95% CI {row['interval'][0]:.2f}-"
        f"{row['interval'][1]:.2f})   "
        f"dispatches/frame {dispatches[name]['columnar']['total']:.1f} -> "
        f"{dispatches[name]['macro']['total']:.1f}"
        for name, row in protocols.items()
    )
    print(f"\nhot path @ {N_VOICE + N_DATA} terminals:\n{table}")

    # The MAC phase must no longer dwarf the frame loop on the MAC-heavy
    # protocols: the kernelised MAC keeps it under three quarters.
    for name, split in phase_split.items():
        assert split["mac"] < 0.75, (name, split)
    # Blocks of 64 must decisively beat one-frame blocks across the board:
    # the sequential test's 95 % interval on the median ratio lies wholly
    # above the floor.  0.9 stays as the never-lose floor for any future
    # protocol.
    for name in LOOKAHEAD_PROTOCOLS:
        assert protocols[name]["floor_cleared"], (name, protocols[name])
    for name, row in protocols.items():
        assert row["macro_over_columnar"] > 0.9, (name, row)
    # The macro mode must actually lower the measured dispatch floor on the
    # lookahead protocols.
    for name in ("rmav", "dtdma_vr"):
        assert (
            dispatches[name]["macro"]["total"]
            < dispatches[name]["columnar"]["total"]
        ), (name, dispatches[name])


# ---------------------------------------------------------------------------
# Constellation scale-out (PR 10): 100 beams x 100 terminals on one machine.
# ---------------------------------------------------------------------------

#: The constellation demo workload: the ISSUE's scale target is 100 beams of
#: the 100-terminal reference cell (10k terminals total) sustained at >=500
#: aggregate frames/sec on one machine.
CONSTELLATION_BEAMS = 100
CONSTELLATION_WORKER_COUNTS = (1, 4, 8)
CONSTELLATION_DURATION_S = 0.25
CONSTELLATION_WARMUP_S = 0.05
#: Aggregate (summed-over-beams) frames/sec the demo must sustain.
CONSTELLATION_FPS_FLOOR = 500.0


def _constellation_scenario():
    from repro.constellation import ConstellationScenario

    return ConstellationScenario(
        protocol=REFERENCE_PROTOCOL,
        n_beams=CONSTELLATION_BEAMS,
        n_voice=N_VOICE,
        n_data=N_DATA,
        duration_s=CONSTELLATION_DURATION_S,
        warmup_s=CONSTELLATION_WARMUP_S,
        seed=SEED,
        rng_mode="fast",
        macro_frames=MACRO_FRAMES,
    )


def _constellation_fps(n_workers: int) -> float:
    """Aggregate frames/sec of one full constellation run.

    Wall-clock, not CPU time: the forked worker processes are the thing
    being measured, and this process's CPU time would miss their share of
    the work.  Aggregate fps is total frames stepped across all beams
    over the run's wall seconds.
    """
    from repro.constellation import ConstellationRunner

    runner = ConstellationRunner(_constellation_scenario(), PARAMS,
                                 n_workers=n_workers)
    start = time.perf_counter()
    runner.run()
    elapsed = time.perf_counter() - start
    frames = sum(shard.engine.frame_index for shard in runner.shards)
    return frames / elapsed


def test_bench_constellation():
    """The 100-beam demo: aggregate fps at each worker count.

    Prints the aggregate frames/sec at each worker count and the scaling
    ratios against the serial run (on a single-core box the ratios sit near
    1.0, so ``cpu_count`` is printed alongside), and asserts the aggregate
    floor.
    """
    best = {}
    for n_workers in CONSTELLATION_WORKER_COUNTS:
        fps = 0.0
        for _ in range(2):
            fps = max(fps, _constellation_fps(n_workers))
        best[n_workers] = fps

    aggregate = max(best.values())
    serial = best[CONSTELLATION_WORKER_COUNTS[0]]
    rows = "  ".join(
        f"{n}w {fps:8.0f} fps ({fps / serial:.2f}x)" for n, fps in best.items()
    )
    print(
        f"\nconstellation @ {CONSTELLATION_BEAMS} beams x "
        f"{N_VOICE + N_DATA} terminals, {os.cpu_count()} CPUs: {rows}"
    )

    assert aggregate >= CONSTELLATION_FPS_FLOOR, best
