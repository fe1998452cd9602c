"""Tests for the top-level public API surface."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


class TestLazyTopLevelApi:
    def test_version_available(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_lazy_attributes_resolve(self):
        assert repro.SimulationParameters is not None
        assert repro.Scenario is not None
        assert callable(repro.run_simulation)
        assert callable(repro.sweep_spec)
        assert callable(repro.create_protocol)
        assert repro.SimulationResult is not None

    def test_experiment_api_exposed_lazily(self):
        assert repro.ExperimentSpec is not None
        assert repro.SweepAxis is not None
        assert repro.ResultSet is not None
        assert callable(repro.run_experiment)
        assert repro.SerialExecutor is not None
        assert repro.ParallelExecutor is not None

    def test_store_api_exposed_lazily(self):
        assert repro.ResultStore is not None
        assert repro.CachingExecutor is not None

    def test_legacy_sweep_shims_removed(self):
        with pytest.raises(AttributeError):
            repro.run_sweep
        from repro.sim import runner
        for name in ("run_many", "run_sweep", "run_protocol_comparison"):
            assert not hasattr(runner, name)

    def test_available_protocols_exposed(self):
        assert "charisma" in repro.available_protocols()

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_symbol

    def test_lazy_attribute_cached(self):
        first = repro.SimulationParameters
        second = repro.SimulationParameters
        assert first is second

    def test_end_to_end_through_public_api(self):
        params = repro.SimulationParameters()
        scenario = repro.Scenario(protocol="charisma", n_voice=3, n_data=1,
                                  duration_s=0.5, warmup_s=0.25, seed=1)
        result = repro.run_simulation(scenario, params)
        assert 0.0 <= result.voice.loss_rate <= 1.0


class TestSubpackageImports:
    @pytest.mark.parametrize("module", [
        "repro.channel", "repro.phy", "repro.traffic", "repro.mac",
        "repro.core", "repro.sim", "repro.metrics", "repro.analysis",
        "repro.cli", "repro.config", "repro.api", "repro.store",
    ])
    def test_importable(self, module):
        assert importlib.import_module(module) is not None

    @pytest.mark.parametrize("module", [
        "repro.channel", "repro.phy", "repro.traffic", "repro.mac",
        "repro.core", "repro.sim", "repro.metrics", "repro.analysis",
        "repro.api", "repro.store",
    ])
    def test_all_exports_exist(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"


class TestColdImports:
    def test_runs_load_neither_scipy_signal_nor_scipy_stats(self):
        # scipy.signal and scipy.stats take longer to import than the rest
        # of the program, and only the offline trace tools and confidence
        # intervals need them, so those import them where they use them.
        # No executor needs asyncio.  A fresh interpreter, so that imports
        # made by other tests do not count.
        script = textwrap.dedent("""
            import sys

            import repro, repro.api, repro.cli, repro.sim.engine, repro.store
            import repro.constellation.runner
            from repro.constellation import ConstellationScenario, run_constellation

            for protocol in ("charisma", "drma"):
                for rng_mode in ("parity", "fast"):
                    repro.run_simulation(repro.Scenario(
                        protocol=protocol, n_voice=4, n_data=2, duration_s=0.2,
                        warmup_s=0.05, seed=3, rng_mode=rng_mode,
                    ))
            run_constellation(ConstellationScenario(
                protocol="charisma", n_beams=2, n_voice=4, n_data=1,
                duration_s=0.2, warmup_s=0.05, seed=3, macro_frames=8,
                handover_rate=0.2, coupling_db=2.0, reuse_factor=1,
            ), n_workers=1)
            loaded = sorted(
                name for name in ("scipy.signal", "scipy.stats", "asyncio")
                if name in sys.modules
            )
            print("loaded:", ",".join(loaded))
        """)
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip().splitlines()[-1] == "loaded:"
