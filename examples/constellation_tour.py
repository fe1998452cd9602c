#!/usr/bin/env python3
"""Tour of the multi-beam constellation layer (:mod:`repro.constellation`).

The paper's world is one uplink cell with at most 180 terminals.  This
walkthrough scales it out to a sharded spot-beam constellation on one
machine, covering the four contracts the layer ships with:

1. **Degenerate case** — a 1-beam constellation is *bit-identical* to the
   plain :class:`~repro.sim.scenario.Scenario` path in parity RNG mode:
   beam 0's streams use the classic empty spawn-key derivation and the
   uncoupled runner advances whole phases through the same ``run_frames``
   chunking as ``engine.run()``.
2. **Coupling** — beams interact only at macro-block boundaries: idle
   voice terminals *hand over* by swapping state with an idle peer slot
   (every counter conserved over the pair), and co-channel beams (same
   ``beam % reuse_factor`` group) fold each other's busy load into their
   channel as a frequency-reuse SNR penalty.
3. **Determinism** — handover decisions are drawn serially from one
   dedicated child stream between blocks, so the worker count is a pure
   performance knob: runs on forked worker processes and in-process runs
   are identical.
4. **Scale** — 100 beams × 100 terminals (the ISSUE's 10k-terminal demo)
   in fast RNG mode with macro-stepping, aggregate frames/sec printed.

Run with::

    python examples/constellation_tour.py
"""

from repro.config import SimulationParameters
from repro.constellation import (
    ConstellationScenario,
    run_constellation,
)
from repro.obs.clock import now
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()


def degenerate_case() -> None:
    # ------------------------------------------------- 1. degenerate case
    shared = dict(
        protocol="rama", n_voice=12, n_data=3, use_request_queue=True,
        duration_s=0.6, warmup_s=0.2, seed=7, macro_frames=16,
    )
    merged = run_constellation(
        ConstellationScenario(n_beams=1, **shared), PARAMS
    ).merged
    plain = run_simulation(Scenario(**shared), PARAMS)
    assert merged.voice == plain.voice
    assert merged.data == plain.data
    assert merged.mac == plain.mac
    print("1-beam constellation == plain Scenario, bit for bit "
          f"(voice loss {merged.voice.loss_rate:.4%})")


def coupled_constellation() -> None:
    # --------------------------------------------------------- 2. coupling
    scenario = ConstellationScenario(
        protocol="charisma",
        n_beams=6,
        n_voice=20, n_data=6,          # per beam -> 156 terminals total
        duration_s=1.0, warmup_s=0.2, seed=9,
        macro_frames=8,
        handover_rate=0.05,            # idle-terminal migration per block
        coupling_db=3.0,               # reuse-interference strength
        reuse_factor=3,                # co-channel groups {0,3} {1,4} {2,5}
    )
    outcome = run_constellation(scenario, PARAMS)
    print(f"\n{scenario.n_beams} coupled beams "
          f"({scenario.n_terminals} terminals): "
          f"{outcome.handovers} handovers, merged voice loss "
          f"{outcome.merged.voice.loss_rate:.4%}")
    for beam, result in enumerate(outcome.beams):
        print(f"  beam {beam}: loss {result.voice.loss_rate:8.4%}  "
              f"throughput {result.data.throughput_packets_per_frame:6.3f} "
              f"pkt/frame")
    # The merged result is the exact column-sum of the per-beam results.
    assert outcome.merged.voice.generated == sum(
        b.voice.generated for b in outcome.beams
    )

    # ------------------------------------------------------ 3. determinism
    serial = run_constellation(scenario, PARAMS, n_workers=1)
    forked = run_constellation(scenario, PARAMS, n_workers=4)
    assert serial.merged == forked.merged
    assert serial.handovers == forked.handovers
    print(f"serial and {forked.n_workers}-process runs identical "
          f"({serial.handovers} handovers either way)")


def scale_demo() -> None:
    # ------------------------------------------------------------ 4. scale
    scenario = ConstellationScenario(
        protocol="rmav",
        n_beams=100,
        n_voice=80, n_data=20,         # per beam -> 10 000 terminals
        duration_s=0.25, warmup_s=0.05, seed=1,
        rng_mode="fast",
        macro_frames=64,
    )
    start = now()
    outcome = run_constellation(scenario, PARAMS)
    elapsed = now() - start
    frames = (
        scenario.warmup_frames(PARAMS) + scenario.measured_frames(PARAMS)
    ) * scenario.n_beams
    print(f"\n{scenario.n_beams} beams x "
          f"{scenario.terminals_per_beam} terminals "
          f"({scenario.n_terminals} total): "
          f"{frames / elapsed:,.0f} aggregate frames/sec "
          f"on {outcome.n_workers} worker(s)")


def main() -> None:
    degenerate_case()
    coupled_constellation()
    scale_demo()


if __name__ == "__main__":
    main()
