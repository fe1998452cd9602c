"""repro — reproduction of the CHARISMA channel-adaptive uplink MAC protocol.

This package reimplements, from scratch, the complete system evaluated in
Kwok & Lau, *"A Novel Channel-Adaptive Uplink Access Control Protocol for
Nomadic Computing"* (ICPP 2000 / IEEE TPDS 2002): the fading channel models,
the 6-mode variable-throughput adaptive physical layer, the integrated
voice/data traffic sources, the five baseline uplink MAC protocols (RAMA,
RMAV, DRMA, D-TDMA/FR, D-TDMA/VR), the proposed CHARISMA protocol, and the
frame-synchronous simulation platform plus metrics used to compare them.

Quickstart
----------
>>> from repro import SimulationParameters, Scenario, run_simulation
>>> params = SimulationParameters()
>>> scenario = Scenario(protocol="charisma", n_voice=20, n_data=5,
...                     use_request_queue=True, duration_s=2.0, seed=1)
>>> result = run_simulation(scenario, params)
>>> 0.0 <= result.voice.loss_rate <= 1.0
True

Experiment grids (protocol × axes × seeds) go through :mod:`repro.api`:

>>> from repro import ExperimentSpec, SweepAxis, run_experiment
>>> spec = ExperimentSpec(protocols=("charisma",), base_scenario=scenario,
...                       axes=(SweepAxis("n_voice", (5, 10)),), seeds=(0, 1))
>>> results = run_experiment(spec)
>>> len(results)
4

Subpackages
-----------
``repro.api``       Unified experiment API: specs, executors, result sets.
``repro.store``     Content-addressed run cache and resumable experiment store.
``repro.channel``   Rayleigh fast fading × log-normal shadowing channel models.
``repro.phy``       Adaptive (ABICM-style) and fixed-rate physical layers, CSI estimation.
``repro.traffic``   Terminal population (voice / data sources), permission-probability gating.
``repro.mac``       MAC substrate and the five baseline protocols.
``repro.core``      The CHARISMA protocol (the paper's contribution).
``repro.sim``       Frame engine, macro stepping, scenario runner.
``repro.metrics``   Voice loss, data throughput/delay metrics and statistics.
``repro.analysis``  Capacity analysis, parameter sweeps, experiment registry.
"""

from repro.version import __version__

__all__ = ["__version__"]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    """Lazily expose the high-level convenience API.

    The heavyweight subpackages are imported on first use so that
    ``import repro`` stays cheap for users who only need one substrate
    (e.g. the channel models).
    """
    lazy = {
        "SimulationParameters": ("repro.config", "SimulationParameters"),
        "Scenario": ("repro.sim.scenario", "Scenario"),
        "run_simulation": ("repro.sim.runner", "run_simulation"),
        "SimulationResult": ("repro.sim.results", "SimulationResult"),
        "available_protocols": ("repro.mac.registry", "available_protocols"),
        "create_protocol": ("repro.mac.registry", "create_protocol"),
        # unified experiment API
        "ExperimentSpec": ("repro.api", "ExperimentSpec"),
        "SweepAxis": ("repro.api", "SweepAxis"),
        "ResultSet": ("repro.api", "ResultSet"),
        "SerialExecutor": ("repro.api", "SerialExecutor"),
        "ParallelExecutor": ("repro.api", "ParallelExecutor"),
        "sweep_spec": ("repro.api", "sweep_spec"),
        "run_experiment": ("repro.api", "run"),
        # run cache / resumable store
        "ResultStore": ("repro.store", "ResultStore"),
        "CachingExecutor": ("repro.store", "CachingExecutor"),
    }
    if name in lazy:
        module_name, attr = lazy[name]
        import importlib

        module = importlib.import_module(module_name)
        value = getattr(module, attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
