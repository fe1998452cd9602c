"""Tests for the content-addressed on-disk ResultStore."""

import json

import pytest

from repro.config import SimulationParameters
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from repro.store import ResultStore
from repro.store import serialization

PARAMS = SimulationParameters()


def make_result(seed=0, n_voice=2):
    scenario = Scenario(protocol="charisma", n_voice=n_voice, n_data=1,
                        duration_s=0.3, warmup_s=0.1, seed=seed)
    return run_simulation(scenario, PARAMS)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


HASH_A = "ab" + "0" * 14
HASH_B = "cd" + "1" * 14


class TestBasics:
    def test_miss_then_hit_round_trip(self, store):
        assert store.get(HASH_A) is None
        result = make_result()
        store.put(HASH_A, result, coords={"protocol": "charisma", "seed": 0})
        assert store.get(HASH_A) == result
        assert HASH_A in store
        assert len(store) == 1

    def test_persistence_across_instances(self, store):
        result = make_result()
        store.put(HASH_A, result)
        reopened = ResultStore(store.path)
        assert reopened.get(HASH_A) == result

    def test_last_write_wins(self, store):
        first, second = make_result(seed=0), make_result(seed=1)
        store.put(HASH_A, first)
        store.put(HASH_A, second)
        assert store.get(HASH_A) == second
        assert len(store) == 1

    def test_sharding_by_hash_prefix(self, store):
        store.put(HASH_A, make_result())
        store.put(HASH_B, make_result(seed=1))
        shard_names = sorted(p.name for p in (store.path / "shards").iterdir())
        assert shard_names == ["ab.jsonl", "cd.jsonl"]

    def test_empty_store_is_truthy(self, store):
        # Regression: __len__ made empty stores falsy, which silently
        # disabled caching behind ``store if store else None`` guards.
        assert len(store) == 0
        assert bool(store) is True

    def test_bad_hash_rejected(self, store):
        with pytest.raises(ValueError):
            store.get("not-a-hash!")
        with pytest.raises(ValueError):
            store.put("XYZ", make_result())

    def test_invalidate_and_clear(self, store):
        store.put(HASH_A, make_result())
        store.put(HASH_B, make_result(seed=1))
        assert store.invalidate(HASH_A) is True
        assert store.invalidate(HASH_A) is False
        assert store.get(HASH_A) is None
        assert store.clear() == 1
        assert len(store) == 0

    def test_get_many(self, store):
        result = make_result()
        store.put(HASH_A, result)
        found = store.get_many([HASH_A, HASH_B])
        assert set(found) == {HASH_A}
        assert found[HASH_A] == result


class TestSchemaVersioning:
    def test_stale_schema_records_are_misses(self, store, monkeypatch):
        store.put(HASH_A, make_result())
        assert store.get(HASH_A) is not None
        monkeypatch.setattr(serialization, "SCHEMA_VERSION",
                            serialization.SCHEMA_VERSION + 1)
        fresh = ResultStore(store.path)
        assert fresh.get(HASH_A) is None
        stats = fresh.stats()
        assert stats.n_results == 0
        assert stats.n_stale == 1

    def test_gc_drops_stale_records(self, store, monkeypatch):
        store.put(HASH_A, make_result())
        monkeypatch.setattr(serialization, "SCHEMA_VERSION",
                            serialization.SCHEMA_VERSION + 1)
        fresh = ResultStore(store.path)
        fresh.put(HASH_B, make_result(seed=1))
        collected = fresh.gc()
        assert collected.dropped_stale == 1
        assert fresh.stats().n_stale == 0
        assert fresh.get(HASH_B) is not None

    def test_gc_compacts_duplicates(self, store):
        store.put(HASH_A, make_result(seed=0))
        store.put(HASH_A, make_result(seed=1))
        collected = store.gc()
        assert collected.dropped_duplicates == 1
        assert collected.reclaimed_bytes > 0
        assert len(store) == 1


class TestCorruptionQuarantine:
    def test_torn_final_line_salvaged_without_quarantine(self, store):
        # A partial trailing line is the signature of a mid-append kill:
        # expected wear, truncated away in place — no quarantine detour.
        good = make_result()
        store.put(HASH_A, good)
        shard = store.path / "shards" / "ab.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')  # a write cut off mid-record
        fresh = ResultStore(store.path)
        assert fresh.get(HASH_A) == good  # salvaged
        assert list((store.path / "quarantine").iterdir()) == []
        assert fresh.stats().n_quarantined == 0
        # the shard itself was repaired: a re-read parses cleanly
        assert ResultStore(store.path).get(HASH_A) == good
        assert shard.read_text().count("\n") == 1

    def test_interior_corruption_still_quarantined(self, store):
        good = make_result()
        store.put(HASH_A, good)
        shard = store.path / "shards" / "ab.jsonl"
        original = shard.read_text()
        shard.write_text('{"garbage": \n' + original)  # damage mid-file
        fresh = ResultStore(store.path)
        assert fresh.get(HASH_A) == good  # neighbours survive
        quarantined = list((store.path / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith("ab.jsonl")
        assert fresh.stats().n_quarantined == 1

    def test_fully_garbage_shard_quarantined(self, store):
        shard = store.path / "shards" / "ab.jsonl"
        shard.write_bytes(b"\x00\xff not json at all")
        fresh = ResultStore(store.path)
        assert fresh.get(HASH_A) is None
        assert not shard.exists() or shard.read_text() == ""
        assert fresh.stats().n_quarantined == 1

    def test_undeserialisable_payload_quarantined_on_get(self, store):
        store.put(HASH_A, make_result())
        shard = store.path / "shards" / "ab.jsonl"
        record = json.loads(shard.read_text().splitlines()[0])
        record["result"]["voice"]["generated"] = -5  # valid JSON, bad value
        shard.write_text(json.dumps(record) + "\n")
        fresh = ResultStore(store.path)
        assert fresh.get(HASH_A) is None
        bad = store.path / "quarantine" / "bad-records.jsonl"
        assert bad.exists()
        # and the poisoned entry is gone from the shard
        assert fresh.get(HASH_A) is None
        assert len(ResultStore(store.path)) == 0


class TestCrashSafety:
    def test_fsync_put_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "cache", fsync=True)
        result = make_result()
        store.put(HASH_A, result)
        assert ResultStore(store.path).get(HASH_A) == result

    def test_two_processes_creating_one_store_do_not_collide(
        self, tmp_path, monkeypatch
    ):
        # Fleet workers open a fresh store together: here another process
        # writes and renames its manifest between this one's temporary
        # write and its rename.
        import os

        path = tmp_path / "cache"
        real_replace = os.replace

        def racing_replace(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            with monkeypatch.context() as other_process:
                other_process.setattr(os, "getpid", lambda: 1)
                ResultStore(path)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        store = ResultStore(path)
        assert os.replace is real_replace
        store.put(HASH_A, make_result())
        assert ResultStore(path).get(HASH_A) == make_result()
        assert not list(path.glob("*.tmp"))

    def test_injected_torn_append_is_salvaged_not_quarantined(self, tmp_path):
        from repro.faults import FaultPlan, injecting

        store = ResultStore(tmp_path / "cache")
        good, lost = make_result(seed=0), make_result(seed=1)
        with injecting(FaultPlan(store_torn_every=2)):
            store.put(HASH_A, good)  # 1st append: intact
            store.put(HASH_B, lost)  # 2nd append: torn mid-line
        # the in-memory cache must not claim the torn record landed
        assert store.get(HASH_B) is None
        assert store.get(HASH_A) == good
        fresh = ResultStore(store.path)
        assert fresh.get(HASH_A) == good
        assert fresh.get(HASH_B) is None
        # expected wear, not corruption: nothing was quarantined
        assert list((store.path / "quarantine").iterdir()) == []
        # re-putting the lost record heals the store
        store.put(HASH_B, lost)
        assert ResultStore(store.path).get(HASH_B) == lost

    def test_torn_tail_salvage_is_counted(self, tmp_path):
        from repro.obs import metrics as _metrics

        store = ResultStore(tmp_path / "cache")
        store.put(HASH_A, make_result())
        shard = store.path / "shards" / "ab.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        with _metrics.recording() as registry:
            assert ResultStore(store.path).get(HASH_A) is not None
        counters = registry.snapshot()["counters"]
        assert counters["store.torn_tail_salvaged"] == 1


class TestStatsAndArtifacts:
    def test_stats_counts(self, store):
        store.put(HASH_A, make_result())
        store.put(HASH_B, make_result(seed=1))
        stats = store.stats()
        assert stats.n_results == 2
        assert stats.n_shards == 2
        assert stats.total_bytes > 0
        assert stats.schema_version == serialization.SCHEMA_VERSION
        assert set(stats.as_dict()) >= {"path", "n_results", "n_stale"}

    def test_artifact_round_trip(self, store):
        payload = {"wall_s": 1.25, "records": [{"a": 1}]}
        store.put_artifact("bench_fig11a", payload)
        assert store.get_artifact("bench_fig11a") == payload
        assert store.list_artifacts() == ["bench_fig11a"]
        assert store.stats().n_artifacts == 1
        assert store.get_artifact("absent") is None

    def test_artifact_name_validated(self, store):
        with pytest.raises(ValueError):
            store.put_artifact("../escape", {})

    def test_foreign_directory_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a result store"):
            ResultStore(tmp_path)
