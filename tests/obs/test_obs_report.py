"""Run telemetry: report round-trip and delivery through the result sink."""

import pytest

from repro.api import (
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    SweepAxis,
    run,
)
from repro.config import SimulationParameters
from repro.obs.report import (
    RUN_REPORT_SCHEMA_VERSION,
    PointReport,
    RunReport,
)
from repro.sim.scenario import Scenario

PARAMS = SimulationParameters()
BASE = Scenario(protocol="charisma", n_voice=0, n_data=1,
                duration_s=0.4, warmup_s=0.2)


def _spec(name="obs-report"):
    return ExperimentSpec(
        protocols=("charisma", "dtdma_fr"),
        base_scenario=BASE,
        axes=(SweepAxis("n_voice", (2, 4)),),
        params=PARAMS,
        seeds=(0,),
        name=name,
    )


class TestReportRoundTrip:
    def test_point_and_run_report_payloads(self):
        point = PointReport(position=3, run_hash="abc123", protocol="rmav",
                            coords={"n_voice": 8}, wall_s=0.5, cache="miss",
                            worker="pid:42", frames=100)
        report = RunReport(spec_name="s", spec_hash="deadbeef", n_points=4,
                           wall_s=1.0, points=[point],
                           metrics={"counters": {}})
        payload = report.to_payload()
        back = RunReport.from_payload(payload)
        assert back == report
        assert payload["schema_version"] == RUN_REPORT_SCHEMA_VERSION

    def test_reports_with_a_phase_split_still_load(self):
        # Artifacts written while points could carry a per-phase split.
        payload = RunReport(spec_name="s", spec_hash="d", n_points=1,
                            wall_s=1.0, points=[], metrics={}).to_payload()
        payload["points"] = [{
            "position": 0, "run_hash": "abc123", "protocol": "rmav",
            "coords": {"n_voice": 8}, "cache": "miss", "wall_s": 0.5,
            "worker": "pid:42", "frames": 100,
            "phase_seconds": {"mac": 0.2, "phy": 0.1},
        }]
        (point,) = RunReport.from_payload(payload).points
        assert point == PointReport(position=0, run_hash="abc123",
                                    protocol="rmav", coords={"n_voice": 8},
                                    wall_s=0.5, cache="miss",
                                    worker="pid:42", frames=100)

    def test_newer_schema_version_rejected(self):
        report = RunReport(spec_name="s", spec_hash="d", n_points=0,
                           wall_s=0.0, points=[], metrics={})
        payload = report.to_payload()
        payload["schema_version"] = RUN_REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            RunReport.from_payload(payload)

    def test_report_reductions(self):
        points = [
            PointReport(position=i, run_hash=f"h{i}", protocol="rmav",
                        coords={}, wall_s=float(i + 1),
                        cache="hit" if i % 2 else "miss")
            for i in range(4)
        ]
        report = RunReport(spec_name="s", spec_hash="d", n_points=4,
                           wall_s=10.0, points=points, metrics={})
        assert [p.position for p in report.slowest(2)] == [3, 2]
        assert report.cache_counts() == {"hit": 2, "miss": 2}


def _sink_reports(executor, spec):
    """Run ``spec``'s points on ``executor``; return the reports its sink saw."""
    reports = []
    executor.execute_with_sink(
        spec.expand(), spec.params,
        sink=lambda position, point, result, report: reports.append(report),
    )
    return sorted(reports, key=lambda report: report.position)


class TestExecutorThreading:
    def test_serial_executor_records_every_point(self):
        spec = _spec()
        points = spec.expand()
        reports = _sink_reports(SerialExecutor(), spec)
        assert [p.position for p in reports] == list(range(len(points)))
        assert all(p.wall_s > 0 for p in reports)
        assert all(p.cache == "computed" for p in reports)
        assert all(p.worker and p.worker.startswith("pid:")
                   for p in reports)

    def test_parallel_executor_records_busy_metrics(self):
        from repro.obs import metrics

        spec = _spec()
        with metrics.recording() as registry:
            reports = _sink_reports(ParallelExecutor(n_workers=2), spec)
        assert len(reports) == spec.n_runs
        assert all(p.cache == "computed" for p in reports)
        assert all(p.worker and p.worker.startswith("pid:")
                   for p in reports)
        assert registry.counter("executor.worker_busy_seconds") > 0.0

    def test_reports_count_every_simulated_frame(self):
        spec = _spec()
        frames = (BASE.warmup_frames(PARAMS) + BASE.measured_frames(PARAMS))
        reports = _sink_reports(SerialExecutor(), spec)
        assert [p.frames for p in reports] == [frames] * spec.n_runs

    def test_constellation_reports_count_every_beam(self):
        from repro.constellation.scenario import ConstellationScenario

        base = ConstellationScenario(protocol="rama", n_beams=3, n_voice=2,
                                     n_data=1, duration_s=0.2, warmup_s=0.1)
        spec = ExperimentSpec(protocols=("rama",), base_scenario=base,
                              params=PARAMS, seeds=(0,))
        (report,) = _sink_reports(SerialExecutor(), spec)
        frames = base.warmup_frames(PARAMS) + base.measured_frames(PARAMS)
        assert report.frames == 3 * frames


class TestFacadeIntegration:
    def test_run_without_store_has_no_telemetry_by_default(self):
        assert run(_spec()).telemetry is None

    def test_run_with_telemetry_true_attaches_report(self):
        results = run(_spec(), telemetry=True)
        report = results.telemetry
        assert report is not None
        assert report.n_points == len(results)
        assert report.spec_hash == _spec().spec_hash()

    def test_cached_run_labels_misses_then_hits_and_persists(self, tmp_path):
        from repro.store import ResultStore

        spec = _spec()
        cold = run(spec, cache_dir=str(tmp_path))
        assert cold.telemetry is not None
        assert cold.telemetry.cache_counts() == {"miss": spec.n_runs}
        warm = run(spec, cache_dir=str(tmp_path))
        assert warm.telemetry.cache_counts() == {"hit": spec.n_runs}
        assert [r.result for r in cold.records] == \
            [r.result for r in warm.records]
        artifact = ResultStore(str(tmp_path)).get_artifact(
            f"telemetry-{spec.spec_hash()}"
        )
        assert artifact is not None
        persisted = RunReport.from_payload(artifact)
        # Last run wins: the warm (all-hit) report is the persisted one.
        assert persisted.cache_counts() == {"hit": spec.n_runs}

    def test_half_cached_grid_reports_every_grid_position(self, tmp_path):
        # The cached points are hits; the inner executor's sub-list comes
        # back relabelled as misses at their own grid positions.
        from repro.store import ResultStore

        spec = _spec()
        warm_half = ExperimentSpec(
            protocols=("charisma", "dtdma_fr"), base_scenario=BASE,
            axes=(SweepAxis("n_voice", (4,)),), params=PARAMS,
            seeds=(0,), name="half",
        )
        run(warm_half, cache_dir=str(tmp_path))
        results = run(spec, cache_dir=str(tmp_path))
        report = results.telemetry
        points = spec.expand()
        assert [p.position for p in report.points] == \
            list(range(spec.n_runs))
        assert [p.run_hash for p in report.points] == \
            [point.run_hash() for point in points]
        assert [p.cache for p in report.points] == ["miss", "hit"] * 2
        assert [point.scenario.n_voice for point in points] == [2, 4] * 2
        assert report.cache_counts() == {"hit": 2, "miss": 2}
        assert results.to_records() == \
            run(spec, executor=SerialExecutor()).to_records()
        assert len(ResultStore(str(tmp_path))) == spec.n_runs

    def test_metric_snapshot_lands_in_report_when_recording(self, tmp_path):
        from repro.obs import metrics

        spec = _spec()
        with metrics.recording():
            results = run(spec, cache_dir=str(tmp_path))
        counters = results.telemetry.metrics.get("counters", {})
        assert counters.get("store.cache_miss") == spec.n_runs

    def test_telemetry_false_disables_even_with_store(self, tmp_path):
        assert run(_spec(), cache_dir=str(tmp_path),
                   telemetry=False).telemetry is None
