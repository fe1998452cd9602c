"""Opt-in guard: disabled observability must stay off the hot path.

The metrics/tracing call sites compiled into the engine's per-frame loop
cost one module-attribute load and a branch when nothing is recording.
This guard enforces the 2 % fps budget for that disabled state, plus an
absolute tripwire against the committed ``BENCH_engine.json`` record.

Methodology — why the 2 % budget is enforced *in-session*
---------------------------------------------------------
Absolute fps on this class of machine drifts by tens of percent between
process invocations (CPU frequency phases; see the module docstring of
``benchmarks/test_bench_hotpath.py``), so a fresh measurement cannot be
compared to a committed number at 2 % resolution.  Instead the budget test
measures, side by side in one session:

* the engine's per-frame cost on the reference rmav workload (everything
  disabled — the state the committed record was taken in), and
* the cost of one disabled hot site (the exact ``TRACER is None`` /
  ``METRICS.enabled`` patterns the instrumented code runs), times the
  number of hot-site executions a frame actually performs (counted by
  running the same workload briefly with a list sink + recording registry
  installed, plus a generous constant bound for metric-only sites).

The ratio of the two is machine-drift-free: both sides move with CPU
frequency together.  If someone accidentally does real work on the
disabled path (allocation, dict writes, span brackets), the per-site cost
explodes and the guard trips.

At recording time the budget was also validated against ground truth: the
pre-obs tree (no call sites at all) and this tree were timed interleaved
across 12 process pairs; the obs tree's mean fps was *higher* (within
noise), i.e. the disabled overhead is below measurement resolution.

The absolute test allows a 25 % drift margin against the committed
record, the tripwire for gross regressions that survive machine drift.

Opt-in (wall-clock assertions are machine dependent):

    REPRO_BENCH_GUARD=1 python -m pytest tests/obs/test_obs_overhead.py -m bench
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import SimulationParameters
from repro.obs import clock as _obs_clock
from repro.obs import metrics as _metrics
from repro.obs import trace as _obs_trace
from repro.obs.trace import ListTraceSink, install_tracer, uninstall_tracer
from repro.sim.engine import UplinkSimulationEngine
from repro.sim.scenario import Scenario

pytestmark = [pytest.mark.slow, pytest.mark.bench]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_engine.json"

#: The ISSUE budget: disabled observability may cost at most 2 % fps.
ALLOWED_DROP = 0.02
#: Drift margin for the absolute comparison against the committed record
#: (absolute fps drifts by tens of percent between process invocations on
#: one machine; 2 % is only resolvable side by side, see module docstring).
DRIFT_ALLOWED_DROP = 0.25
REPETITIONS = 4

#: Disabled metric checks a frame may run beyond the span/event sites the
#: trace pass counts (``run_contention_ids`` and friends run roughly one
#: ``METRICS.enabled`` check per frame; eight is a generous bound).
METRIC_SITES_PER_FRAME_BOUND = 8

#: Iterations for the per-site microbenchmark.
MICRO_ITERATIONS = 200_000

PARAMS = SimulationParameters()


def _guard_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_GUARD", "") == "1"


def _workload() -> dict:
    if not RECORD_PATH.exists():
        pytest.skip("no committed BENCH_engine.json to guard against")
    latest = json.loads(RECORD_PATH.read_text()).get("latest", {})
    workload = latest.get("workload", {})
    row = latest.get("protocols", {}).get("rmav")
    if not row or not workload:
        pytest.skip("committed BENCH_engine.json has no rmav record")
    return {**workload, "committed_fps": row["columnar_fps"]}


def _build_engine(workload: dict) -> UplinkSimulationEngine:
    scenario = Scenario(
        protocol="rmav",
        n_voice=workload["n_voice"],
        n_data=workload["n_data"],
        duration_s=workload["measured_s"],
        warmup_s=workload["warmup_s"],
        seed=workload["seed"],
        engine_backend="columnar",
    )
    return UplinkSimulationEngine(scenario, PARAMS)


def _rmav_run(workload: dict) -> tuple:
    """Run the reference workload once; return (frames, cpu_seconds)."""
    engine = _build_engine(workload)
    start = _obs_clock.cpu_now()
    engine.run()
    return engine.frame_index, _obs_clock.cpu_now() - start


def _disabled_site_seconds() -> float:
    """CPU seconds per disabled hot-site check (the real patterns)."""
    n = MICRO_ITERATIONS
    start = _obs_clock.cpu_now()
    for _ in range(n):
        # The two patterns every instrumented call site compiles down to
        # when nothing is recording (see repro.obs.trace / repro.obs.metrics
        # module docstrings): one module-attribute load plus one branch.
        if _obs_trace.TRACER is not None:  # pragma: no cover
            raise AssertionError("tracer installed during microbenchmark")
        m = _metrics.METRICS
        if m.enabled:  # pragma: no cover
            raise AssertionError("metrics recording during microbenchmark")
    elapsed = _obs_clock.cpu_now() - start
    # Each iteration ran both patterns; charge per single site.
    return elapsed / (2 * n)


def _sites_per_frame(workload: dict) -> float:
    """Hot-site executions per frame, counted with everything enabled.

    Every span and event a traced run emits corresponds to one disabled
    check on the untraced path; metric-only sites (no span) are covered by
    the constant bound added on top.
    """
    engine = _build_engine(workload)
    sink = ListTraceSink()
    install_tracer(sink)
    try:
        with _metrics.recording():
            engine.run_frames(256)
    finally:
        uninstall_tracer()
    emitted = sum(
        1 for r in sink.records if r.get("record") in ("span", "event")
    )
    return emitted / 256 + METRIC_SITES_PER_FRAME_BOUND


@pytest.mark.skipif(
    not _guard_enabled(),
    reason="overhead guard is opt-in: set REPRO_BENCH_GUARD=1 on the "
           "machine that produced BENCH_engine.json",
)
def test_disabled_observability_costs_under_two_percent():
    workload = _workload()

    # Everything disabled — the state the committed record was taken in.
    assert not _metrics.METRICS.enabled
    assert _obs_trace.TRACER is None

    best_frame_seconds = float("inf")
    site_seconds = float("inf")
    for _ in range(REPETITIONS):
        frames, elapsed = _rmav_run(workload)
        best_frame_seconds = min(best_frame_seconds, elapsed / frames)
        site_seconds = min(site_seconds, _disabled_site_seconds())

    overhead = _sites_per_frame(workload) * site_seconds
    fraction = overhead / best_frame_seconds
    assert fraction < ALLOWED_DROP, (
        f"disabled observability overhead: {overhead * 1e9:.0f} ns/frame "
        f"of {best_frame_seconds * 1e6:.1f} us/frame = {fraction:.2%} "
        f"(budget {ALLOWED_DROP:.0%}) — something is doing real work on "
        f"the disabled path"
    )


@pytest.mark.skipif(
    not _guard_enabled(),
    reason="overhead guard is opt-in: set REPRO_BENCH_GUARD=1 on the "
           "machine that produced BENCH_engine.json",
)
def test_rmav_fps_not_regressed_vs_committed_record():
    workload = _workload()

    assert not _metrics.METRICS.enabled
    assert _obs_trace.TRACER is None

    best = 0.0
    for _ in range(REPETITIONS):
        frames, elapsed = _rmav_run(workload)
        best = max(best, frames / elapsed)

    floor = workload["committed_fps"] * (1.0 - DRIFT_ALLOWED_DROP)
    assert best >= floor, (
        f"rmav columnar fps regressed: measured {best:.1f}, committed "
        f"{workload['committed_fps']:.1f}, floor {floor:.1f} "
        f"(> {DRIFT_ALLOWED_DROP:.0%} drop)"
    )
