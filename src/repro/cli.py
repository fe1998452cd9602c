"""Command-line interface.

The CLI exposes the three things a user most often wants without writing
Python:

* ``run`` — simulate one scenario and print its metrics;
* ``compare`` — run several protocols on the same workload and print the
  side-by-side table;
* ``capacity`` — search for the voice capacity of a protocol at the 1 % loss
  threshold;
* ``experiments`` — list the registered paper artefacts and which benchmark
  regenerates each;
* ``cache`` — inspect (``stats``), compact (``gc``) or empty (``clear``) an
  on-disk result store (see ``--cache`` on ``run``/``compare``);
* ``profile`` — cProfile the engine's frame loop on a chosen scenario and
  print the top-N functions (hot-path work belongs here first);
* ``obs`` — observability utilities: ``obs summarize trace.jsonl`` renders
  the per-span/per-phase digest of a trace file written by ``--trace`` (see
  that option on ``run``/``compare``) or by :func:`repro.obs.tracing`;
* ``lint`` — run the contract-aware static analyzer (:mod:`repro.lint`)
  over the package sources: RNG discipline, child-stream label uniqueness,
  ``@kernel`` purity and store-schema hygiene, with ``--json`` and
  ``--update-baseline`` for the committed baseline/fingerprint files;
* ``selftest`` (also reachable as ``python -m repro --selftest``) — smoke-run
  one tiny experiment through every executor, check they agree, verify that
  blocks of 16 frames equal one-frame blocks, and round-trip the result store
  in a temporary directory.

All simulation commands funnel through :mod:`repro.api`; ``--cache DIR``
makes them resumable (finished points are served from the store in DIR),
and a grid costly enough to fan out over a process pool survives a killed
worker (:class:`~repro.api.ParallelExecutor`).  Invoke as
``python -m repro <command> ...``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Optional, Sequence

from repro.analysis.capacity import voice_capacity
from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.tables import format_comparison_table, format_kv_table
from repro.api import (
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    SweepAxis,
    run,
)
from repro.config import SimulationParameters
from repro.mac.registry import available_protocols
from repro.sim.scenario import Scenario

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHARISMA channel-adaptive uplink MAC — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one scenario")
    _add_scenario_arguments(run_parser)
    run_parser.add_argument(
        "--constellation", type=int, default=None, metavar="N",
        help="simulate N spot beams instead of one cell (--n-voice/--n-data "
             "become per-beam counts; the merged constellation-aggregate "
             "result is reported)")
    run_parser.add_argument(
        "--handover-rate", type=float, default=0.0, dest="handover_rate",
        metavar="P",
        help="per-block probability that an idle voice terminal hands over "
             "to another beam (constellation runs only)")
    run_parser.add_argument(
        "--macro-frames", type=int, default=None, dest="macro_frames",
        metavar="K",
        help="coupling period: beams exchange interference and handovers "
             "every K frames (default 1; constellation runs only: a single "
             "cell steps the engine's 64-frame blocks and rejects this flag)")
    run_parser.add_argument(
        "--coupling-db", type=float, default=0.0, dest="coupling_db",
        metavar="DB",
        help="frequency-reuse interference coupling strength in dB "
             "(constellation runs only)")
    run_parser.add_argument(
        "--reuse", type=int, default=1, dest="reuse_factor", metavar="K",
        help="frequency-reuse factor: beams b and b' share a channel iff "
             "b%%K == b'%%K (constellation runs only)")
    run_parser.add_argument(
        "--beam-workers", type=int, default=None, dest="beam_workers",
        metavar="W",
        help="worker processes stepping the beam shards (default: the "
             "usable CPUs, at most 8; also settable via "
             "REPRO_CONSTELLATION_WORKERS)")

    compare_parser = sub.add_parser("compare", help="compare several protocols")
    _add_scenario_arguments(compare_parser, include_protocol=False)
    compare_parser.add_argument(
        "--protocols", nargs="+", default=list(available_protocols()),
        choices=available_protocols(), help="protocols to compare",
    )

    capacity_parser = sub.add_parser(
        "capacity", help="voice capacity at the 1%% loss threshold"
    )
    capacity_parser.add_argument("--protocol", default="charisma",
                                 choices=available_protocols())
    capacity_parser.add_argument("--n-data", type=int, default=0)
    capacity_parser.add_argument("--queue", action="store_true")
    capacity_parser.add_argument("--lower", type=int, default=10)
    capacity_parser.add_argument("--upper", type=int, default=200)
    capacity_parser.add_argument("--step", type=int, default=20)
    capacity_parser.add_argument("--duration", type=float, default=4.0)
    capacity_parser.add_argument("--seed", type=int, default=0)

    sub.add_parser("experiments", help="list the registered paper artefacts")

    cache_parser = sub.add_parser(
        "cache", help="inspect or maintain an on-disk result store"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "gc", "clear"),
        help="stats: summarise; gc: drop stale/duplicate records; "
             "clear: remove every cached result",
    )
    cache_parser.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="directory of the result store",
    )

    profile_parser = sub.add_parser(
        "profile", help="cProfile the engine frame loop on one scenario"
    )
    _add_scenario_arguments(profile_parser)
    profile_parser.add_argument(
        "--top", type=int, default=25,
        help="number of functions to print (sorted by cumulative time)",
    )
    profile_parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="cumulative",
        help="profile sort order",
    )
    profile_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report (frames/sec, per-phase "
             "traffic/channel/MAC/PHY/metrics split, top functions) instead "
             "of the pstats table",
    )

    obs_parser = sub.add_parser(
        "obs", help="observability utilities (trace summaries)"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    summarize_parser = obs_sub.add_parser(
        "summarize",
        help="digest a JSON-lines trace file: per-span aggregates, events, "
             "slowest points",
    )
    summarize_parser.add_argument("trace", metavar="TRACE.jsonl",
                                  help="trace file written by --trace")
    summarize_parser.add_argument(
        "--top", type=int, default=12,
        help="span rows to print (sorted by total time)",
    )
    summarize_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the summary as JSON instead of tables",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="contract-aware static analysis: RNG discipline, kernel "
             "purity, schema hygiene (see README 'Source contracts')",
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint_parser)

    sub.add_parser(
        "selftest",
        help="run one tiny experiment through each executor, compare them, "
             "check that 16-frame blocks equal one-frame blocks, cross-check "
             "the fast RNG mode, round-trip an observability trace, and "
             "round-trip the result store",
    )
    return parser


def _add_scenario_arguments(parser: argparse.ArgumentParser,
                            include_protocol: bool = True) -> None:
    if include_protocol:
        parser.add_argument("--protocol", default="charisma",
                            choices=available_protocols())
    parser.add_argument("--n-voice", type=int, default=60)
    parser.add_argument("--n-data", type=int, default=10)
    parser.add_argument("--queue", action="store_true",
                        help="enable the base-station request queue")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="measured simulation time in seconds")
    parser.add_argument("--warmup", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--speed", type=float, default=None,
                        help="mobile speed in km/h (default: Table 1 value)")
    parser.add_argument("--rng-mode", choices=("parity", "fast"),
                        default="parity", dest="rng_mode",
                        help="random-draw batching: parity (default) draws "
                             "in a fixed scalar order, so runs in blocks of "
                             "any size agree bit for bit; fast batches "
                             "whole-frame draws from per-subsystem child "
                             "streams (statistically equivalent, fastest for "
                             "paper-scale sweeps)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="serve finished runs from (and persist new runs "
                             "to) the result store in DIR")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSON-lines execution trace (engine "
                             "phases, MAC batches, macro-step events) to "
                             "PATH; digest it with 'repro obs summarize'")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault-injection plan, e.g. "
                             "'crash_every=3,seed=7' (see repro.faults; "
                             "defaults to the REPRO_FAULTS environment "
                             "variable)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry each point up to N times on transient "
                             "failures (recording survivors-only results "
                             "instead of aborting the grid)")


def _scenario_from_args(args: argparse.Namespace, protocol: Optional[str] = None) -> Scenario:
    return Scenario(
        protocol=protocol or args.protocol,
        n_voice=args.n_voice,
        n_data=args.n_data,
        use_request_queue=args.queue,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
        mobile_speed_kmh=args.speed,
        rng_mode=getattr(args, "rng_mode", "parity"),
    )


def _constellation_from_args(args: argparse.Namespace):
    """The multi-beam scenario requested by ``--constellation``, or ``None``.

    ``--beam-workers`` is exported through the ``REPRO_CONSTELLATION_WORKERS``
    environment override so the worker count reaches the constellation
    runner through the normal ExperimentSpec execution path.
    """
    n_beams = getattr(args, "constellation", None)
    if n_beams is None:
        return None
    from repro.constellation import ConstellationScenario, WORKERS_ENV

    if getattr(args, "beam_workers", None) is not None:
        os.environ[WORKERS_ENV] = str(args.beam_workers)
    return ConstellationScenario(
        protocol=args.protocol,
        n_beams=n_beams,
        n_voice=args.n_voice,
        n_data=args.n_data,
        use_request_queue=args.queue,
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
        mobile_speed_kmh=args.speed,
        rng_mode=getattr(args, "rng_mode", "parity"),
        macro_frames=1 if args.macro_frames is None else args.macro_frames,
        handover_rate=getattr(args, "handover_rate", 0.0),
        coupling_db=getattr(args, "coupling_db", 0.0),
        reuse_factor=getattr(args, "reuse_factor", 1),
    )


def _trace_context(args: argparse.Namespace, command: str):
    """Context manager installing the process tracer when ``--trace`` is set.

    The trace header records the command that wrote the file.
    """
    from contextlib import nullcontext

    path = getattr(args, "trace", None)
    if path is None:
        return nullcontext()
    from repro.obs import tracing

    return tracing(path, meta={"command": command})


def _fault_kwargs(args: argparse.Namespace) -> dict:
    """``retry=``/``faults=`` keyword arguments for :func:`run` from the CLI
    flags (``--retries N`` records failures instead of aborting the grid)."""
    kwargs: dict = {}
    if getattr(args, "faults", None) is not None:
        kwargs["faults"] = args.faults
    if getattr(args, "retries", None) is not None:
        from repro.faults import RetryPolicy

        kwargs["retry"] = RetryPolicy(max_attempts=args.retries,
                                      on_error="record")
    return kwargs


def _report_failures(results) -> None:
    """Print a one-line-per-point digest of any failed points."""
    failed = results.failed()
    if not failed:
        return
    print(f"\n{len(failed)} point(s) failed:")
    for record in failed:
        error = record.error
        print(f"  {record.point.run_hash()}  {error.error_type}: "
              f"{error.message} (after {error.attempts} attempt(s))")


def _command_run(args: argparse.Namespace) -> int:
    params = SimulationParameters()
    scenario = _constellation_from_args(args) or _scenario_from_args(args)
    spec = ExperimentSpec(
        protocols=(scenario.protocol,),
        base_scenario=scenario,
        params=params,
        seeds=(scenario.seed,),
        name="cli-run",
    )
    with _trace_context(args, "run"):
        results = run(spec, executor=SerialExecutor(),
                      cache_dir=args.cache, **_fault_kwargs(args))
    record = results[0]
    if not record.ok:
        _report_failures(results)
        return 1
    result = record.result
    print(format_kv_table(result.summary(), title=f"Results for {scenario.label()}"))
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(digest: python -m repro obs summarize {args.trace})")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    params = SimulationParameters()
    base = _scenario_from_args(args, protocol=args.protocols[0])
    spec = ExperimentSpec(
        protocols=tuple(args.protocols),
        base_scenario=base,
        axes=(SweepAxis("n_voice", (args.n_voice,)),),
        params=params,
        seeds=(base.seed,),
        name="cli-compare",
    )
    # A tracer lives in the driving process, so tracing forces serial
    # execution — process-pool workers would write nothing into the file.
    executor = SerialExecutor() if args.trace else None
    with _trace_context(args, "compare"):
        results = run(spec, executor=executor,
                      cache_dir=args.cache, **_fault_kwargs(args))
    _report_failures(results)
    sweeps = results.completed().to_sweep_results("n_voice")
    for metric in ("voice_loss_rate", "data_throughput_per_frame", "data_delay_s"):
        print(format_comparison_table(sweeps, metric, title=f"[{metric}]"))
        print()
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(digest: python -m repro obs summarize {args.trace})")
    return 0


def _command_capacity(args: argparse.Namespace) -> int:
    params = SimulationParameters()
    estimate = voice_capacity(
        args.protocol, params, n_data=args.n_data,
        use_request_queue=args.queue,
        lower=args.lower, upper=args.upper, step=args.step,
        duration_s=args.duration, seed=args.seed,
    )
    print(f"protocol          : {estimate.protocol}")
    print(f"loss threshold    : {estimate.threshold_value:.2%}")
    print(f"voice capacity    : {estimate.capacity} users")
    print(f"simulations spent : {estimate.n_probes}")
    return 0


def _command_experiments(_: argparse.Namespace) -> int:
    print(f"{'key':<16} {'paper artefact':<38} benchmark")
    print(f"{'-'*16} {'-'*38} {'-'*40}")
    for key, experiment in EXPERIMENTS.items():
        print(f"{key:<16} {experiment.paper_artifact:<38} {experiment.bench_target}")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        print(format_kv_table(store.stats().as_dict(),
                              title=f"Result store at {args.cache_dir}"))
    elif args.action == "gc":
        collected = store.gc()
        print(f"dropped {collected.dropped_stale} stale record(s), "
              f"{collected.dropped_duplicates} duplicate line(s); "
              f"reclaimed {collected.reclaimed_bytes} bytes")
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} cached result(s)")
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """cProfile one engine run and print the hottest functions.

    With ``--json`` the command instead reports a machine-readable summary:
    an *uninstrumented-profiler* pass measures frames/sec and the per-phase
    traffic/channel/MAC/PHY/metrics split (cProfile skews small functions,
    so the split comes from the engine's own phase timers), then a cProfile
    pass ranks the top functions.
    """
    import cProfile
    import json
    import pstats

    from repro.obs import clock as _obs_clock
    from repro.sim.engine import UplinkSimulationEngine

    params = SimulationParameters()
    scenario = _scenario_from_args(args)

    if args.as_json:
        engine = UplinkSimulationEngine(scenario, params)
        phases = engine.enable_phase_timing()
        started = _obs_clock.cpu_now()
        result = engine.run()
        elapsed = _obs_clock.cpu_now() - started
        frames = engine.frame_index
        total_phase = sum(phases.values()) or 1.0

        # Kernel-dispatch counts come from a short separate pass: the
        # per-kernel entry wrappers are cheap but not free, so they must
        # not contaminate the fps measurement.
        counted = UplinkSimulationEngine(scenario, params)
        counted.enable_phase_timing(count_dispatches=True)
        count_frames = min(
            400, scenario.warmup_frames(params) + scenario.measured_frames(params)
        )
        try:
            counted.run_frames(count_frames)
            dispatch_counts = dict(counted.dispatch_counts or {})
        finally:
            # The counter monkey-patches the live @kernel bindings; it must
            # not outlive this pass even on an interrupted run.
            counted.disable_phase_timing()
        dispatches = {
            phase: round(calls / count_frames, 2)
            for phase, calls in dispatch_counts.items()
        } if count_frames else {}

        profiled = UplinkSimulationEngine(scenario, params)
        profiler = cProfile.Profile()
        profiler.enable()
        profiled.run()
        profiler.disable()
        rows = []
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort)
        for func in stats.fcn_list[: args.top]:
            cc, nc, tt, ct, _callers = stats.stats[func]
            filename, line, name = func
            rows.append(
                {
                    "function": f"{filename}:{line}({name})",
                    "ncalls": nc,
                    "tottime_s": round(tt, 6),
                    "cumtime_s": round(ct, 6),
                }
            )
        report = {
            "scenario": scenario.label(),
            "rng_mode": scenario.rng_mode,
            "frames": frames,
            "cpu_seconds": round(elapsed, 6),
            "frames_per_second": round(frames / elapsed, 1) if elapsed else None,
            "voice_loss_rate": result.voice.loss_rate,
            "data_throughput_packets_per_frame":
                result.data.throughput_packets_per_frame,
            "block_frames": engine.BLOCK_FRAMES,
            "phase_seconds": {k: round(v, 6) for k, v in phases.items()},
            "phase_fraction": {
                k: round(v / total_phase, 4) for k, v in phases.items()
            },
            "dispatches_per_frame": dispatches,
            "dispatches_per_frame_total": round(sum(dispatches.values()), 2),
            "top_functions": rows,
            "sort": args.sort,
        }
        print(json.dumps(report, indent=2))
        return 0

    engine = UplinkSimulationEngine(scenario, params)
    profiler = cProfile.Profile()
    profiler.enable()
    result = engine.run()
    profiler.disable()
    frames = engine.frame_index
    print(f"profiled {scenario.label()}: {frames} frames")
    print(f"voice loss {result.voice.loss_rate:.4f}, "
          f"data throughput {result.data.throughput_packets_per_frame:.3f} pkt/frame")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    """Observability utilities — currently ``obs summarize``."""
    import json

    from repro.obs.summary import format_summary, summarize_trace

    try:
        summary = summarize_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        payload = {
            "header": summary.header,
            "n_spans": summary.n_spans,
            "n_events": summary.n_events,
            "spans": [
                {
                    "name": agg.name,
                    "count": agg.count,
                    "total_s": round(agg.total_s, 6),
                    "mean_s": round(agg.mean_s, 6),
                    "max_s": round(agg.max_s, 6),
                }
                for agg in summary.aggregates
            ],
            "events": summary.events,
            "phase_seconds": {
                k: round(v, 6) for k, v in summary.phase_seconds().items()
            },
            "slowest_points": summary.slowest_points,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_summary(summary, top=args.top))
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def _selftest_macro_parity() -> bool:
    """Blocks of 16 frames must equal one-frame blocks exactly (parity mode)."""
    from repro.sim.engine import UplinkSimulationEngine

    def run_in_blocks(scenario: Scenario, block_frames: int):
        # A run_frames call of at most BLOCK_FRAMES frames is one block.
        engine = UplinkSimulationEngine(scenario)
        params = engine.params
        phases = (scenario.warmup_frames(params), scenario.measured_frames(params))
        for phase, frames in enumerate(phases):
            if phase:
                engine.begin_measurement()
            for start in range(0, frames, block_frames):
                engine.run_frames(min(block_frames, frames - start))
        return engine.collect_results()

    for protocol in ("charisma", "dtdma_vr", "rama"):
        base = Scenario(protocol=protocol, n_voice=6, n_data=2,
                        use_request_queue=True, duration_s=0.4, warmup_s=0.2,
                        seed=11)
        if run_in_blocks(base, 16).summary() != run_in_blocks(base, 1).summary():
            print(f"  MISMATCH: 16-frame blocks disagree for {protocol}")
            return False
    print("  macro stepping     1-frame == 16-frame blocks for 3 protocols")
    return True


def _selftest_rng_fast() -> bool:
    """Fast RNG mode must run clean and keep the accounting invariants."""
    from repro.sim.runner import run_simulation

    for protocol in ("charisma", "drma", "dtdma_fr"):
        scenario = Scenario(protocol=protocol, n_voice=6, n_data=2,
                            use_request_queue=True, duration_s=0.4,
                            warmup_s=0.2, seed=11, rng_mode="fast")
        result = run_simulation(scenario)
        voice, data = result.voice, result.data
        if voice.delivered + voice.errored + voice.dropped > voice.generated:
            print(f"  MISMATCH: fast-mode voice conservation broke for {protocol}")
            return False
        if data.delivered > data.generated or not 0.0 <= voice.loss_rate <= 1.0:
            print(f"  MISMATCH: fast-mode data accounting broke for {protocol}")
            return False
    print("  rng_mode=fast      conservation holds for 3 protocols")
    return True


def _selftest_lint() -> bool:
    """The shipped tree must pass its own source contracts."""
    from repro.lint import lint_tree

    report = lint_tree()
    if report.exit_code != 0:
        for finding in report.findings:
            print(f"  LINT: {finding.location()}: [{finding.rule}] "
                  f"{finding.message}")
        return False
    print(f"  repro lint         clean across {report.n_modules} modules, "
          f"{report.n_kernels} @kernel functions")
    return True


def _selftest_obs() -> bool:
    """A traced run must stay bit-identical and round-trip the trace file.

    The trace path defaults to a temporary file; set ``REPRO_SELFTEST_TRACE``
    to keep the file (CI uploads it as a build artifact).
    """
    import contextlib
    import os

    from repro.obs import metrics as _metrics
    from repro.obs import summarize_trace, tracing
    from repro.sim.runner import run_simulation

    scenario = Scenario(protocol="charisma", n_voice=6, n_data=2,
                        use_request_queue=True, duration_s=0.4, warmup_s=0.2,
                        seed=11)
    plain = run_simulation(scenario)

    keep = os.environ.get("REPRO_SELFTEST_TRACE")
    with contextlib.ExitStack() as stack:
        if keep:
            trace_path = keep
        else:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-selftest-obs-")
            )
            trace_path = os.path.join(tmp, "trace.jsonl")
        with _metrics.recording() as registry:
            with tracing(trace_path, meta={"command": "selftest"}):
                traced = run_simulation(scenario)
        if (traced.voice, traced.data, traced.mac) != (
            plain.voice, plain.data, plain.mac
        ):
            print("  MISMATCH: tracing changed the simulation results")
            return False
        summary = summarize_trace(trace_path)
        phase_seconds = summary.phase_seconds()
        if not phase_seconds or any(v < 0 for v in phase_seconds.values()):
            print("  MISMATCH: trace round-trip lost the phase spans")
            return False
        if summary.by_name("engine.run") is None:
            print("  MISMATCH: trace is missing the engine.run span")
            return False
        snapshot = registry.snapshot()
        if snapshot["counters"].get("contention.rounds", 0) <= 0:
            print("  MISMATCH: metrics registry recorded no contention rounds")
            return False
    kept = f" (kept at {keep})" if keep else ""
    print(f"  repro.obs          traced == untraced; trace round-trips "
          f"{summary.n_spans} spans, {summary.n_events} events{kept}")
    return True


def _command_selftest(_: argparse.Namespace) -> int:
    """Run one tiny grid through each executor and verify they agree."""
    from repro.obs import metrics as _metrics
    from repro.store import CachingExecutor, ResultStore

    spec = ExperimentSpec(
        protocols=("charisma", "dtdma_fr"),
        base_scenario=Scenario(protocol="charisma", n_voice=0, n_data=1,
                               duration_s=0.4, warmup_s=0.2),
        axes=(SweepAxis("n_voice", (2, 4)),),
        seeds=(0, 1),
        name="selftest",
    )
    print(f"selftest grid: {spec.n_runs} runs (hash {spec.spec_hash()})")
    reference = None
    reference_rounds = None
    results = None
    for label, executor in (
        ("SerialExecutor", SerialExecutor()),
        ("ParallelExecutor", ParallelExecutor(n_workers=2)),
    ):
        # Pool workers record into registries of their own; the counts
        # must still all reach this one.
        with _metrics.recording() as registry:
            results = run(spec, executor=executor)
        rounds = registry.counter("contention.rounds")
        records = results.to_records()
        print(f"  {label:<18} {len(results)} runs ok, "
              f"{rounds:.0f} contention rounds")
        if reference is None:
            reference, reference_rounds = records, rounds
        elif records != reference:
            print(f"  MISMATCH: {label} disagrees with SerialExecutor")
            return 1
        elif rounds != reference_rounds or not rounds:
            print(f"  MISMATCH: {label} counted {rounds:.0f} contention "
                  f"rounds, SerialExecutor {reference_rounds:.0f}")
            return 1
    rows = results.aggregate(["voice_loss_rate"], by=("protocol", "n_voice"))
    print(f"  aggregate          {len(rows)} (protocol, n_voice) groups ok")

    if not _selftest_macro_parity():
        return 1
    if not _selftest_rng_fast():
        return 1
    if not _selftest_obs():
        return 1
    if not _selftest_lint():
        return 1

    # Store round-trip: a cold cached run must miss everywhere, a second
    # identical run must hit everywhere and agree byte-for-byte.
    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        cold = CachingExecutor(ResultStore(tmp), SerialExecutor())
        cold_records = run(spec, executor=cold).to_records()
        warm = CachingExecutor(ResultStore(tmp), SerialExecutor())
        warm_records = run(spec, executor=warm).to_records()
        print(f"  ResultStore        cold {cold.misses} misses, "
              f"warm {warm.hits} hits")
        if cold.misses != spec.n_runs or warm.misses != 0:
            print("  MISMATCH: store round-trip executed the wrong run count")
            return 1
        if cold_records != reference or warm_records != reference:
            print("  MISMATCH: cached results disagree with SerialExecutor")
            return 1
    print("selftest passed: executors and the result store agree byte-for-byte")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "--selftest":
        argv[0] = "selftest"
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "macro_frames", None) is not None
            and args.constellation is None):
        parser.error("--macro-frames is the coupling period of "
                     "--constellation runs; a single cell steps the engine's "
                     "64-frame blocks")
    handlers = {
        "run": _command_run,
        "compare": _command_compare,
        "capacity": _command_capacity,
        "experiments": _command_experiments,
        "cache": _command_cache,
        "profile": _command_profile,
        "obs": _command_obs,
        "lint": _command_lint,
        "selftest": _command_selftest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
