"""Hot-path benchmark: in-session frame-loop assertions.

Times the 100-terminal reference workload (80 voice + 20 data terminals)
for every protocol and asserts the qualitative contracts of the frame loop,
all measured in the same session so machine drift cancels out:

* ``macro_over_columnar`` — the macro-stepped frame loop
  (``Scenario.macro_frames=64``) against per-frame stepping, in the RNG mode
  under which the protocol's lookahead engages (``macro_rng_mode``): parity
  for most, **fast** for CHARISMA, whose batched-CSI stream only exists in
  fast mode.  Every current protocol must beat per-frame stepping by more
  than 1.5x;
* ``dispatches_per_frame`` — measured ``@kernel(batch=True)`` entries per
  frame per phase (``enable_phase_timing(count_dispatches=True)``) for the
  per-frame and macro-stepped modes; macro mode must need fewer;
* ``phase_split`` — the engine's own per-phase timers (traffic / channel /
  MAC / PHY / metrics fractions per protocol, parity mode); the MAC phase
  must stay under three quarters of the frame.

The tests print their tables and write no file.  ``BENCH_engine.json`` at
the repository root is a frozen historical record of earlier runs;
``perfbench/`` (see its README) is the benchmark of record.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario

pytestmark = pytest.mark.slow

PARAMS = SimulationParameters()

#: The reference workload: 100 terminals at the paper's 80/20 voice/data mix.
N_VOICE = 80
N_DATA = 20
SEED = 1
DURATION_S = 1.0
WARMUP_S = 0.25
REPETITIONS = 5

#: The thinnest MAC layer (one competitive slot per frame, no request
#: queue), which isolates the frame-loop cost.
REFERENCE_PROTOCOL = "rmav"


#: Macro block size the ``macro`` legs measure (the CLI's recommended
#: "large block" setting; bit-identical to per-frame in parity mode).
MACRO_FRAMES = 64

#: Protocols whose macro lookahead is a hard performance contract: each
#: must beat per-frame stepping by >1.5x in-session (measured in the RNG
#: mode its lookahead engages under — see ``_macro_rng_mode``).
LOOKAHEAD_PROTOCOLS = (
    "charisma", "drma", "dtdma_fr", "dtdma_vr", "rama", "rmav",
)


def _build_engine(protocol: str, rng_mode: str, seed: int = SEED,
                  macro_frames: int = 1):
    scenario = Scenario(
        protocol=protocol,
        n_voice=N_VOICE,
        n_data=N_DATA,
        duration_s=DURATION_S,
        warmup_s=WARMUP_S,
        seed=seed,
        rng_mode=rng_mode,
        macro_frames=macro_frames,
    )
    return UplinkSimulationEngine(scenario, PARAMS)


def _frames_per_second(protocol: str, rng_mode: str = "parity",
                       macro_frames: int = 1) -> float:
    """Run once; return frames per CPU second."""
    engine = _build_engine(protocol, rng_mode, macro_frames=macro_frames)
    start = time.process_time()
    engine.run()
    return engine.frame_index / (time.process_time() - start)


def _macro_rng_mode(protocol: str) -> str:
    """The RNG mode under which the protocol's macro lookahead engages.

    Most protocols advertise ``supports_macro_lookahead`` in parity mode,
    so their macro pair is a parity/parity quotient (and bit-identical to
    per-frame stepping).  CHARISMA's lookahead only engages in fast mode —
    its batched-CSI stream exists only there — so its pair is measured
    fast/fast: same quotient discipline, different (recorded) mode.
    """
    for mode in ("parity", "fast"):
        if _build_engine(protocol, mode).protocol.supports_macro_lookahead:
            return mode
    return "parity"


def measure() -> dict:
    """Per-frame vs macro frames/sec per protocol, timed in adjacent pairs.

    The ``macro_over_columnar`` quotient compares macro-stepped against
    per-frame stepping *in the same RNG mode* (recorded per protocol as
    ``macro_rng_mode``).  It is the median over ``REPETITIONS`` pairs of
    back-to-back runs, alternating which side runs first, so a CPU
    frequency phase shifts both sides of a pair alike.  A quotient of two
    best-of-N values mixes runs from different phases; on a 2-vCPU box it
    ranged from 1.3 to 1.8 for DRMA across repeated runs.
    """
    protocols = {}
    for protocol in available_protocols():
        mode = _macro_rng_mode(protocol)
        per_frame, macro = [], []
        for rep in range(REPETITIONS):
            sides = [(per_frame, 1), (macro, MACRO_FRAMES)]
            for runs, macro_frames in sides[::-1] if rep % 2 else sides:
                runs.append(
                    _frames_per_second(protocol, mode, macro_frames=macro_frames))
        protocols[protocol] = {
            "columnar_fps": round(max(per_frame), 1),
            "macro_fps": round(max(macro), 1),
            "macro_rng_mode": mode,
            "macro_over_columnar": round(statistics.median(
                m / p for m, p in zip(macro, per_frame)), 3),
        }
    return protocols


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
        for label, macro_frames in (("columnar", 1), ("macro", MACRO_FRAMES)):
            engine = _build_engine(protocol, "parity", macro_frames=macro_frames)
            engine.enable_phase_timing(count_dispatches=True)
            try:
                engine.run_frames(512)
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
        f"  {name:10s} per-frame {row['columnar_fps']:9.0f} fps   "
        f"macro {row['macro_fps']:9.0f} fps "
        f"({row['macro_over_columnar']:.2f}x, {row['macro_rng_mode']})   "
        f"dispatches/frame {dispatches[name]['columnar']['total']:.1f} -> "
        f"{dispatches[name]['macro']['total']:.1f}"
        for name, row in protocols.items()
    )
    print(f"\nhot path @ {N_VOICE + N_DATA} terminals:\n{table}")

    # The MAC phase must no longer dwarf the frame loop on the MAC-heavy
    # protocols: the kernelised MAC keeps it under three quarters.
    for name, split in phase_split.items():
        assert split["mac"] < 0.75, (name, split)
    # Every current protocol now carries a macro lookahead (inline
    # contended-frame replay for DRMA/RAMA, batched CSI for CHARISMA), so
    # the macro-stepped mode must decisively beat per-frame stepping across
    # the board; 0.9 stays as the never-lose floor for any future protocol
    # that lands without a lookahead (fallback frames still enjoy fused
    # traffic, so macro mode must not cost them anything real).
    for name in LOOKAHEAD_PROTOCOLS:
        assert protocols[name]["macro_over_columnar"] > 1.5, (
            name, protocols[name],
        )
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
