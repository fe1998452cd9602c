#!/usr/bin/env python3
"""Tour of the unified experiment API (:mod:`repro.api`).

The paper's artefacts are all *families* of runs — protocol × population ×
seed × parameter grids.  This walkthrough covers the three layers the API
splits that into:

1. **Declare** the grid with :class:`~repro.api.ExperimentSpec` and
   :class:`~repro.api.SweepAxis` — any ``Scenario`` or
   ``SimulationParameters`` field is sweepable, cross-products compose, and
   every point is replicated over the spec's seeds.  Expansion is
   deterministic and hashable, so the same spec always names the same runs.
2. **Execute** it with :func:`~repro.api.run` — serially, across worker
   processes with :class:`~repro.api.ParallelExecutor`, or let the facade's
   heuristic decide.  Executors are interchangeable: same spec, same
   results, whatever the backend.
3. **Query** the returned :class:`~repro.api.ResultSet` — ``filter`` /
   ``group_by`` / ``aggregate`` (mean ± Student-t CI across seed
   replicates), export with ``to_records`` / ``to_csv`` / ``to_json``, or
   drop back to the legacy ``SweepResult`` tables with
   ``to_sweep_results``.
4. **Cache & resume** with ``run(spec, cache_dir=...)`` — every finished
   point is persisted under its content hash as it completes, so re-running
   an identical spec simulates nothing and a killed sweep resumes where it
   stopped.  ``python -m repro cache stats --cache-dir DIR`` inspects the
   store.  A point that fails costs only itself: the rest of the grid
   still finishes and reaches the store.

Run with::

    python examples/experiment_api_tour.py
"""

import tempfile

from repro.analysis.tables import format_comparison_table
from repro.api import (
    CachingExecutor,
    ExperimentSpec,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    SweepAxis,
    run,
)
from repro.config import SimulationParameters
from repro.faults import FaultPlan, InjectedFault
from repro.sim.scenario import Scenario


def main() -> None:
    # ------------------------------------------------------------ 1. declare
    spec = ExperimentSpec(
        protocols=("charisma", "dtdma_vr", "rama"),
        base_scenario=Scenario(
            protocol="charisma",
            n_voice=0,
            n_data=5,
            use_request_queue=True,
            duration_s=1.0,
            warmup_s=0.5,
        ),
        axes=(
            SweepAxis("n_voice", (20, 60)),
            # Any SimulationParameters field works too, e.g. the mean SNR:
            SweepAxis("mean_snr_db", (22.0, 28.5)),
        ),
        seeds=(0, 1, 2),
        name="api-tour",
    )
    print("spec:", spec.describe())
    points = spec.expand()
    print(f"expands to {len(points)} runs; first 2 hashes:",
          [p.run_hash() for p in points[:2]])
    assert spec.expand() == points, "expansion is deterministic"

    # ------------------------------------------------------------ 2. execute
    def progress(done: int, total: int) -> None:
        if done in (1, total // 2, total):
            print(f"  progress: {done}/{total}")

    results = run(spec, executor=SerialExecutor(), progress=progress)

    # Executors are interchangeable; a process pool returns the exact same
    # ResultSet (shared parameters are shipped to each worker only once).
    parallel = run(spec, executor=ParallelExecutor(n_workers=2))
    assert parallel.to_records() == results.to_records()
    print("serial and parallel execution agree on all",
          len(results), "runs")

    # -------------------------------------------------------------- 3. query
    # Mean voice loss ± 95 % CI across the three seed replicates, per
    # (protocol, load) cell at the reference SNR:
    print("\nvoice loss, mean ± CI over 3 seeds (mean SNR 28.5 dB):")
    reference = results.filter(mean_snr_db=28.5)
    for row in reference.aggregate(["voice_loss_rate"],
                                   by=("protocol", "n_voice")):
        coords = dict(row.group)
        print(f"  {coords['protocol']:9s} Nv={coords['n_voice']:<3d} "
              f"{row.mean:8.4%} ± {row.ci_half_width:.4%}  (n={row.n})")

    # Slicing back to the legacy table formatter for one sub-figure:
    sweeps = reference.filter(seed=0).to_sweep_results("n_voice")
    print()
    print(format_comparison_table(sweeps, "voice_loss_rate",
                                  title="voice loss, seed 0 (legacy view)"))

    # Flat records for pandas / CSV / JSON pipelines:
    records = results.to_records()
    print(f"\n{len(records)} flat records; keys: {', '.join(list(records[0])[:6])}, ...")
    csv_head = results.to_csv().splitlines()[0]
    print("csv header:", csv_head[:72], "...")

    # ----------------------------------------------------- 4. cache & resume
    # Every RunPoint has a stable content hash, so results can be cached on
    # disk: the first cached run simulates everything, an identical re-run
    # simulates *nothing*, and a killed sweep resumes from what finished.
    with tempfile.TemporaryDirectory(prefix="repro-tour-") as cache_dir:
        print(f"\ncached run into {cache_dir}:")
        cold = CachingExecutor(ResultStore(cache_dir), SerialExecutor())
        cached_results = run(spec, executor=cold)
        print(f"  cold: {cold.misses} simulated, {cold.hits} from cache")

        warm = CachingExecutor(ResultStore(cache_dir), SerialExecutor())
        rerun_results = run(spec, executor=warm)
        print(f"  warm: {warm.misses} simulated, {warm.hits} from cache")
        assert warm.misses == 0, "identical spec must be 100% cache hits"
        assert rerun_results.to_records() == cached_results.to_records()

        # The same directory works straight from the facade (and the CLI:
        # `python -m repro run --cache DIR`, `python -m repro cache stats
        # --cache-dir DIR`):
        facade_results = run(spec, cache_dir=cache_dir)
        assert facade_results.to_records() == cached_results.to_records()
        stats = ResultStore(cache_dir).stats()
        print(f"  store: {stats.n_results} results in {stats.n_shards} "
              f"shards, {stats.total_bytes} bytes")

    # ParallelExecutor hands out one point per task, most expensive first,
    # so the big points of a heterogeneous grid start early.  A point that
    # fails costs only itself: the others finish and reach the store, and
    # the error re-raises once the grid has wound down.
    with tempfile.TemporaryDirectory(prefix="repro-tour-") as cache_dir:
        crash = FaultPlan(crash_points=(points[0].run_hash(),),
                          crash_point_attempts=99)
        try:
            run(spec, executor=ParallelExecutor(n_workers=2),
                cache_dir=cache_dir, faults=crash)
        except InjectedFault:
            pass
        resumed = CachingExecutor(ResultStore(cache_dir), SerialExecutor())
        assert run(spec, executor=resumed).to_records() == results.to_records()
        print(f"\none injected crash on the process pool: {resumed.hits} runs "
              f"kept in the store, {resumed.misses} simulated again")


if __name__ == "__main__":
    main()
