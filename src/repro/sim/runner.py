"""The single-run entry point.

``run_simulation`` evaluates one :class:`~repro.sim.scenario.Scenario` and
returns its :class:`~repro.sim.results.SimulationResult`.  Everything beyond
a single run — sweeps, protocol comparisons, seed replication, parallel or
cached execution — goes through :func:`repro.api.run` with an
:class:`~repro.api.ExperimentSpec` (the deprecated ``run_many`` /
``run_sweep`` / ``run_protocol_comparison`` shims have been removed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.config import SimulationParameters
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario

if TYPE_CHECKING:
    from repro.constellation.scenario import ConstellationScenario

__all__ = ["run_simulation"]


def run_simulation(
    scenario: Union[Scenario, "ConstellationScenario"],
    params: Optional[SimulationParameters] = None,
) -> SimulationResult:
    """Simulate one scenario and return its metrics.

    Also accepts a :class:`~repro.constellation.scenario.
    ConstellationScenario`, in which case the constellation runner steps
    every beam and the *merged* constellation-aggregate result is returned
    (the per-beam breakdown is available from
    :func:`repro.constellation.run_constellation` directly).
    """
    if not isinstance(scenario, Scenario):
        # Imported lazily: repro.constellation builds on this module.
        from repro.constellation.runner import run_constellation
        from repro.constellation.scenario import ConstellationScenario

        if isinstance(scenario, ConstellationScenario):
            return run_constellation(scenario, params).merged
    engine = UplinkSimulationEngine(scenario, params)
    return engine.run()
