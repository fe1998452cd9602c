"""Simulation platform: frame engine, scenarios and runners.

This subpackage is the "common simulation platform" of the paper's Section 5:
it wires the channel models, the physical layers, the traffic sources and the
MAC protocols together and produces the metrics the evaluation reports.

* :mod:`repro.sim.engine` — the frame-synchronous TDMA engine;
* :mod:`repro.sim.macro` — its one frame loop, which steps blocks of frames;
* :mod:`repro.sim.scenario` / :mod:`repro.sim.results` — run descriptions and
  result containers;
* :mod:`repro.sim.runner` — the single-run entry point (grids and sweeps
  live in :mod:`repro.api`);
* :mod:`repro.sim.rng` — reproducible independent random streams.
"""

from repro.sim.engine import UplinkSimulationEngine
from repro.sim.results import SimulationResult, SweepResult
from repro.sim.rng import RandomStreams
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario

__all__ = [
    "RandomStreams",
    "Scenario",
    "SimulationResult",
    "SweepResult",
    "UplinkSimulationEngine",
    "run_simulation",
]
