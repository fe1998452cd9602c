"""Fleet end-to-end: multi-process runs, SIGKILL survival, degradation.

The PR's second acceptance criterion lives here: a fleet of two workers,
one of which is SIGKILLed mid-grid, must still finish the run through
lease reclamation — with zero lost points and zero duplicated executions —
and match the serial run byte for byte.
"""

import os
import signal
import time

import pytest

from repro.api import ExperimentSpec, SerialExecutor, SweepAxis, run
from repro.config import SimulationParameters
from repro.constellation.scenario import ConstellationScenario
from repro.fleet import FleetError, FleetWorker, WorkService, run_fleet, spawn_worker
from repro.fleet.service import params_to_payload
from repro.sim.scenario import Scenario
from repro.store import ResultStore

PARAMS = SimulationParameters()
BASE = Scenario(protocol="charisma", n_voice=0, n_data=1,
                duration_s=0.3, warmup_s=0.1)


def fleet_spec():
    return ExperimentSpec(
        protocols=("charisma", "rama"),
        base_scenario=BASE,
        axes=(SweepAxis("n_voice", (2, 4)),),
        params=PARAMS,
        seeds=(0, 1),
        name="fleet-acceptance",
    )


def serial_reference(spec):
    return run(spec, executor=SerialExecutor()).to_records()


class TestRunFleet:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        spec = fleet_spec()
        results = run_fleet(spec, tmp_path / "store", n_workers=2,
                            lease_ttl_s=5.0, deadline_s=120.0)
        assert not results.errors()
        assert results.to_records() == serial_reference(spec)
        # zero duplicated executions: every point simulated exactly once
        service = WorkService(tmp_path / "store" / "fleet.db")
        counts = service.counts()
        service.close()
        assert counts["done"] == spec.n_runs
        assert counts["executions"] == spec.n_runs
        assert counts["completions"] == spec.n_runs

    def test_rerun_resumes_from_the_store_without_simulating(self, tmp_path):
        spec = fleet_spec()
        run_fleet(spec, tmp_path / "store", n_workers=2,
                  lease_ttl_s=5.0, deadline_s=120.0)
        again = run_fleet(spec, tmp_path / "store", n_workers=1,
                          db_path=tmp_path / "second.db",
                          lease_ttl_s=5.0, deadline_s=120.0)
        assert again.to_records() == serial_reference(spec)
        service = WorkService(tmp_path / "second.db")
        counts = service.counts()
        service.close()
        # all completions were store-dedupe hits — nothing re-simulated
        assert counts["completions"] == spec.n_runs
        assert counts["executions"] == 0

    def test_failed_points_become_error_records(self, tmp_path):
        spec = fleet_spec()
        victim = spec.expand()[1].run_hash()
        results = run_fleet(
            spec, tmp_path / "store", n_workers=1,
            lease_ttl_s=5.0, deadline_s=120.0,
            faults=f"crash_points={victim},crash_point_attempts=99",
        )
        errors = results.errors()
        assert [e.run_hash for e in errors] == [victim]
        assert errors[0].error_type == "InjectedFault"
        assert len(results.completed()) == spec.n_runs - 1

    def test_constellation_grid_completes_like_serial(self, tmp_path):
        # Work items rebuild each point's scenario from its payload; a
        # constellation must come back as a ConstellationScenario.
        spec = ExperimentSpec(
            protocols=("rama",),
            base_scenario=ConstellationScenario(
                protocol="rama", n_beams=2, n_voice=3, n_data=1,
                duration_s=0.3, warmup_s=0.1, macro_frames=8,
                handover_rate=0.05,
            ),
            axes=(SweepAxis("n_voice", (3, 5)),),
            params=PARAMS,
            name="fleet-constellation",
        )
        results = run_fleet(spec, tmp_path / "store", n_workers=1,
                            lease_ttl_s=5.0, deadline_s=120.0)
        assert not results.errors()
        assert [r.result.scenario for r in results.records] == \
            [p.scenario for p in spec.expand()]
        assert results.to_records() == serial_reference(spec)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_fleet(fleet_spec(), tmp_path / "store", n_workers=0)

    def test_deadline_raises_fleet_error(self, tmp_path):
        spec = fleet_spec()
        # hang every point attempt far past the driver's deadline
        with pytest.raises(FleetError, match="did not finish"):
            run_fleet(spec, tmp_path / "store", n_workers=1,
                      lease_ttl_s=0.5, deadline_s=0.6, poll_s=0.05,
                      faults="hang_every=1,hang_s=30")


class TestWorkerLoop:
    def test_in_process_worker_drains_the_queue(self, tmp_path):
        spec = fleet_spec()
        service = WorkService(tmp_path / "fleet.db", lease_ttl_s=5.0)
        service.set_meta("params", params_to_payload(spec.params))
        service.enqueue(spec.expand())
        store = ResultStore(tmp_path / "store")
        worker = FleetWorker(service, store, worker_id="solo")
        assert worker.run() == spec.n_runs
        assert worker.dedup_hits == 0
        assert service.counts()["done"] == spec.n_runs
        service.close()

    def test_prefilled_store_dedupes_without_simulating(self, tmp_path):
        spec = fleet_spec()
        points = spec.expand()
        store = ResultStore(tmp_path / "store")
        # one point's result is already paid for (an earlier run)
        done = points[0]
        result = run(spec, executor=SerialExecutor())[0].result
        store.put(done.run_hash(), result, coords=done.coords_dict())

        service = WorkService(tmp_path / "fleet.db", lease_ttl_s=5.0)
        service.set_meta("params", params_to_payload(spec.params))
        service.enqueue(points)
        worker = FleetWorker(service, store, worker_id="solo")
        assert worker.run() == spec.n_runs
        assert worker.dedup_hits == 1
        counts = service.counts()
        assert counts["executions"] == spec.n_runs - 1
        assert counts["completions"] == spec.n_runs
        service.close()


class TestSigkillSurvival:
    """Acceptance: one of two workers SIGKILLed mid-grid; the fleet still
    finishes with zero lost and zero duplicated points."""

    def test_sigkill_mid_grid_zero_lost_zero_duplicated(self, tmp_path):
        spec = fleet_spec()
        points = spec.expand()
        reference = serial_reference(spec)

        db_path = tmp_path / "fleet.db"
        store_path = tmp_path / "store"
        lease_ttl_s = 2.0
        service = WorkService(db_path, lease_ttl_s=lease_ttl_s,
                              max_attempts=10)
        service.set_meta("spec_hash", spec.spec_hash())
        service.set_meta("params", params_to_payload(spec.params))
        service.enqueue(points)

        # The victim hangs in every point attempt, after its claim and
        # before execution, so it is killed mid-hang and can never store
        # its leased point before the SIGKILL lands.
        victim = spawn_worker(db_path, store_path, worker_id="victim",
                              lease_ttl_s=lease_ttl_s,
                              fault_spec="hang_every=1,hang_s=60")
        survivor = spawn_worker(db_path, store_path, worker_id="survivor",
                                lease_ttl_s=lease_ttl_s)
        try:
            # Wait until the victim actually holds a lease, then SIGKILL it
            # mid-point: the harshest crash there is — no cleanup, no
            # release, just a dangling lease.
            deadline = time.time() + 60.0
            while time.time() < deadline:
                leased = [row for row in service.snapshot()
                          if row["state"] == "leased"
                          and row["owner"] == "victim"]
                if leased:
                    break
                time.sleep(0.02)
            assert leased, "victim never claimed a point"
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()

            # The survivor (plus reaping) must finish the whole grid.
            deadline = time.time() + 120.0
            while service.unfinished() > 0:
                assert time.time() < deadline, service.counts()
                service.reap()
                if not survivor.is_alive() and service.unfinished() > 0:
                    survivor = spawn_worker(db_path, store_path,
                                            worker_id="respawn",
                                            lease_ttl_s=lease_ttl_s)
                time.sleep(0.05)
            survivor.join(timeout=10.0)
        finally:
            for process in (victim, survivor):
                if process.is_alive():
                    process.terminate()

        counts = service.counts()
        # zero lost: every point finished; none parked as failed
        assert counts["done"] == spec.n_runs
        assert counts["failed"] == 0
        # zero duplicated: each point's result was computed exactly once
        # (the victim died mid-execution, so its in-flight point was
        # re-executed by the survivor — but never *also* completed by the
        # victim) and completed exactly once.
        assert counts["completions"] == spec.n_runs
        assert counts["executions"] == spec.n_runs
        service.close()

        # and the reclaimed run is bit-identical to the serial one
        store = ResultStore(store_path)
        from repro.api.resultset import ResultSet, RunRecord

        records = []
        for point in points:
            result = store.get(point.run_hash())
            assert result is not None, "a point's result went missing"
            records.append(RunRecord(point=point, result=result))
        assert ResultSet(records,
                         name=spec.name).to_records() == reference
