"""Run telemetry: report round-trip and threading through the executors."""

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
    RunTelemetry,
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
                            worker="pid:42", frames=100,
                            phase_seconds={"mac": 0.2})
        report = RunReport(spec_name="s", spec_hash="deadbeef", n_points=4,
                           wall_s=1.0, points=[point],
                           metrics={"counters": {}})
        payload = report.to_payload()
        back = RunReport.from_payload(payload)
        assert back == report
        assert payload["schema_version"] == RUN_REPORT_SCHEMA_VERSION

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
                        cache="hit" if i % 2 else "miss",
                        phase_seconds={"mac": 0.1 * (i + 1)})
            for i in range(4)
        ]
        report = RunReport(spec_name="s", spec_hash="d", n_points=4,
                           wall_s=10.0, points=points, metrics={})
        assert [p.position for p in report.slowest(2)] == [3, 2]
        assert report.cache_counts() == {"hit": 2, "miss": 2}
        assert report.phase_totals()["mac"] == pytest.approx(1.0)


class TestRunTelemetry:
    def test_child_absorb_remaps_positions_and_cache(self):
        parent = RunTelemetry()
        parent.start()
        parent.record_point(0, run_hash="a", protocol="p", coords={},
                            cache="hit")
        child = parent.child()
        child.record_point(0, run_hash="b", protocol="p", coords={})
        child.record_point(1, run_hash="c", protocol="p", coords={})
        parent.absorb(child, positions=[2, 5], cache="miss")
        report = parent.report(spec_name="s", spec_hash="d", n_points=3)
        assert [p.position for p in report.points] == [0, 2, 5]
        assert [p.cache for p in report.points] == ["hit", "miss", "miss"]
        assert report.wall_s >= 0.0


class TestExecutorThreading:
    def test_serial_executor_records_every_point(self):
        spec = _spec()
        telemetry = RunTelemetry()
        telemetry.start()
        points = spec.expand()
        SerialExecutor().execute_with_sink(points, spec.params,
                                           telemetry=telemetry)
        report = telemetry.report(spec_name=spec.name,
                                  spec_hash=spec.spec_hash(),
                                  n_points=len(points))
        assert len(report.points) == len(points)
        assert all(p.wall_s > 0 for p in report.points)
        assert all(p.cache == "computed" for p in report.points)
        assert all(p.worker and p.worker.startswith("pid:")
                   for p in report.points)

    def test_parallel_executor_records_busy_metrics(self):
        from repro.obs import metrics

        spec = _spec()
        telemetry = RunTelemetry()
        telemetry.start()
        with metrics.recording() as registry:
            ParallelExecutor(n_workers=2).execute_with_sink(
                spec.expand(), spec.params, telemetry=telemetry,
            )
        report = telemetry.report(spec_name=spec.name,
                                  spec_hash=spec.spec_hash(),
                                  n_points=spec.n_runs)
        assert len(report.points) == spec.n_runs
        assert registry.counter("executor.worker_busy_seconds") > 0.0

    def test_phase_split_rides_along(self):
        spec = _spec()
        telemetry = RunTelemetry(phase_split=True)
        telemetry.start()
        points = spec.expand()
        SerialExecutor().execute_with_sink(points, spec.params,
                                           telemetry=telemetry)
        report = telemetry.report(spec_name=spec.name,
                                  spec_hash=spec.spec_hash(),
                                  n_points=len(points))
        assert all(p.phase_seconds for p in report.points)
        assert report.phase_totals()["mac"] >= 0.0


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
