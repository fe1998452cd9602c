"""Golden baselines: the cases, their digests, and the recorder command.

``baselines.json`` (next to this file) pins the exact results of a fixed
set of small simulations.  Each record holds

* ``key`` -- the case's identifier;
* ``digest`` -- a SHA-256 over the result's ``voice``/``data``/``mac``
  payload sections plus the metrics collector's two per-frame series
  (delivered data packets and voice losses per measured frame), so
  per-frame agreement is pinned, not only the end-of-run totals;
* ``metrics`` -- a few headline values, printed next to the actual ones when
  a digest stops matching so a numeric drift (for example after a NumPy or
  SciPy upgrade) can be told apart from a logic change;
* ``versions`` -- the NumPy and SciPy versions the record was made with.

The scenario is left out of the digest on purpose: every frame runs through
the one frame loop, and in either RNG mode the result does not depend on
its block size, so a cell's ``macro1`` record (one-frame blocks) and its
``macro64`` record (blocks of 64) carry the same digest.  A cell case picks
its block size through the engine (:func:`tests.utils.run_in_blocks`).

``tests/golden/test_golden.py`` checks every record.  Running the tests
never rewrites the file; after a deliberate change of results, refresh it
from the repository root with::

    PYTHONPATH=src python -m tests.golden.record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy

from repro.config import SimulationParameters
from repro.constellation import ConstellationRunner, ConstellationScenario
from repro.mac.registry import available_protocols
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario
from tests.utils import run_in_blocks

BASELINES_PATH = Path(__file__).with_name("baselines.json")

PARAMS = SimulationParameters()

#: Headline values stored next to each digest (diagnostics only).
KEY_METRICS = (
    "voice_loss_rate",
    "data_throughput_per_frame",
    "data_delay_s",
    "slot_utilisation",
    "collision_rate",
    "mean_queue_length",
)


class Case(NamedTuple):
    """One golden case: a single cell or a constellation."""

    key: str
    scenario: object
    #: A cell's block size; ``None`` runs ``engine.run()`` as it stands.
    block_frames: Optional[int] = None


def _cell_cases() -> List[Case]:
    # 80 terminals over 100 frames: enough load for collisions, full frames
    # and a used request queue, small enough that all 96 cells take ~1 s.
    cases = []
    for protocol in available_protocols():
        for queue in (False, True):
            for block_frames in (1, 64):
                for seed in (0, 1):
                    for rng_mode in ("parity", "fast"):
                        key = (
                            f"cell/{protocol}/{'queue' if queue else 'noqueue'}"
                            f"/macro{block_frames}/seed{seed}/{rng_mode}"
                        )
                        cases.append(Case(key, Scenario(
                            protocol=protocol, n_voice=60, n_data=20,
                            use_request_queue=queue, duration_s=0.15,
                            warmup_s=0.1, seed=seed, rng_mode=rng_mode,
                        ), block_frames))
    return cases


def _special_cases() -> List[Case]:
    # The deep-backlog DRMA cell of tests/mac/test_drma_backlog.py: bursts
    # of ~100 packets against 8 information slots keep buffers and the
    # base-station queue deep.
    cases = [Case("drma_backlog", Scenario(
        protocol="drma", n_voice=4, n_data=25, use_request_queue=True,
        duration_s=0.6, warmup_s=0.2, seed=13,
    ))]
    for n_beams in (1, 4):
        for rng_mode in ("parity", "fast"):
            cases.append(Case(
                f"constellation/beams{n_beams}/{rng_mode}",
                ConstellationScenario(
                    protocol="rama", n_beams=n_beams, n_voice=12, n_data=3,
                    use_request_queue=True, duration_s=0.4, warmup_s=0.1,
                    seed=3, rng_mode=rng_mode, macro_frames=16,
                    handover_rate=0.05, coupling_db=3.0,
                    reuse_factor=min(2, n_beams),
                ),
            ))
    return cases


def _wide_cases() -> List[Case]:
    # 5,000 terminals: about 67 voice generations and 58 deadline drops per
    # measured frame, so the traffic layer's array bookkeeping runs where
    # the 80-terminal cells' few events a frame take the scalar loops.
    return [
        Case(f"wide/{protocol}/{rng_mode}", Scenario(
            protocol=protocol, n_voice=4000, n_data=1000,
            duration_s=0.2, warmup_s=0.1, seed=0, rng_mode=rng_mode,
        ))
        for protocol in ("rmav", "charisma")
        for rng_mode in ("parity", "fast")
    ]


CASES: Tuple[Case, ...] = tuple(
    _cell_cases() + _special_cases() + _wide_cases()
)


def versions() -> Dict[str, str]:
    """The installed NumPy and SciPy versions."""
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _sections(result, collector) -> Dict[str, object]:
    return {
        "voice": dataclasses.asdict(result.voice),
        "data": dataclasses.asdict(result.data),
        "mac": dataclasses.asdict(result.mac),
        "data_delivered_per_frame": collector.data_delivered_per_frame,
        "voice_loss_events_per_frame": collector.voice_loss_events_per_frame,
    }


def run_case(case: Case) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Run a case; return ``(digested content, key metrics)``."""
    scenario = case.scenario
    if isinstance(scenario, ConstellationScenario):
        # The default worker count: where it exceeds one, the digest pins
        # the forked-worker path, whose shards come back to this process.
        runner = ConstellationRunner(scenario, PARAMS)
        outcome = runner.run()
        content: Dict[str, object] = {
            "beams": [
                _sections(result, shard.engine.collector)
                for shard, result in zip(runner.shards, outcome.beams)
            ],
            "handovers": outcome.handovers,
        }
        result = outcome.merged
    else:
        engine = UplinkSimulationEngine(scenario, PARAMS)
        if case.block_frames is None:
            result = engine.run()
        else:
            result = run_in_blocks(engine, case.block_frames)
        content = _sections(result, engine.collector)
    summary = result.summary()
    return content, {name: float(summary[name]) for name in KEY_METRICS}


def digest(content: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON form of a case's digested content."""
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def record_case(case: Case) -> Dict[str, object]:
    """The baseline record of one case, as stored in ``baselines.json``."""
    content, metrics = run_case(case)
    return {
        "key": case.key,
        "digest": digest(content),
        "metrics": metrics,
        "versions": versions(),
    }


def load_baselines() -> Dict[str, Dict[str, object]]:
    """The committed records, by case key."""
    records = json.loads(BASELINES_PATH.read_text())["records"]
    return {record["key"]: record for record in records}


def main() -> None:
    records = [record_case(case) for case in CASES]
    BASELINES_PATH.write_text(
        json.dumps({"records": records}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(records)} records to {BASELINES_PATH}")


if __name__ == "__main__":
    main()
