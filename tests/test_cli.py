"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.protocol == "charisma"
        assert args.n_voice == 60

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "bogus"])

    def test_compare_protocol_list(self):
        args = build_parser().parse_args(["compare", "--protocols", "charisma", "rama"])
        assert args.protocols == ["charisma", "rama"]

    @pytest.mark.parametrize("argv", [
        ["run", "--macro-frames", "16"],
        ["compare", "--macro-frames", "16"],
        ["profile", "--macro-frames", "64"],
    ])
    def test_macro_frames_is_a_usage_error_for_a_single_cell(self, argv, capsys):
        # A single cell steps the engine's own blocks; the flag would be
        # ignored, so it is refused.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--macro-frames" in capsys.readouterr().err

    def test_macro_frames_sets_the_coupling_period_of_a_constellation(self):
        from repro.cli import _constellation_from_args

        parser = build_parser()
        args = parser.parse_args(["run", "--constellation", "2",
                                  "--macro-frames", "8"])
        assert _constellation_from_args(args).macro_frames == 8
        args = parser.parse_args(["run", "--constellation", "2"])
        assert _constellation_from_args(args).macro_frames == 1


class TestCommands:
    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig11a" in out and "table1" in out and "benchmarks/" in out

    def test_run_small_scenario(self, capsys):
        code = main([
            "run", "--protocol", "charisma", "--n-voice", "4", "--n-data", "1",
            "--duration", "0.5", "--warmup", "0.25", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "voice_loss_rate" in out
        assert "data_throughput_per_frame" in out

    def test_compare_two_protocols(self, capsys):
        code = main([
            "compare", "--protocols", "charisma", "dtdma_fr",
            "--n-voice", "4", "--n-data", "1",
            "--duration", "0.5", "--warmup", "0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "charisma" in out and "dtdma_fr" in out
        assert "[voice_loss_rate]" in out

    def test_capacity_small_search(self, capsys):
        code = main([
            "capacity", "--protocol", "charisma",
            "--lower", "4", "--upper", "8", "--step", "4",
            "--duration", "0.5", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "voice capacity" in out

    def test_run_with_speed_override(self, capsys):
        code = main([
            "run", "--n-voice", "2", "--n-data", "0", "--duration", "0.5",
            "--warmup", "0.25", "--speed", "80",
        ])
        assert code == 0

    def test_run_with_cache_dir_hits_on_rerun(self, capsys, tmp_path):
        from repro.store import ResultStore

        cache_dir = str(tmp_path / "cache")
        argv = ["run", "--n-voice", "2", "--n-data", "0",
                "--duration", "0.4", "--warmup", "0.2", "--cache", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(ResultStore(cache_dir)) == 1
        assert main(argv) == 0  # second run served from the store
        assert capsys.readouterr().out == first

    def test_cache_stats_gc_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "--n-voice", "2", "--n-data", "0",
                     "--duration", "0.4", "--warmup", "0.2",
                     "--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "n_results" in out and "1" in out
        assert main(["cache", "gc", "--cache-dir", cache_dir]) == 0
        assert "reclaimed" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_run_with_trace_records_the_command(self, capsys, tmp_path):
        from repro.obs.summary import load_trace

        path = tmp_path / "run.jsonl"
        assert main(["run", "--n-voice", "2", "--n-data", "1",
                     "--duration", "0.4", "--warmup", "0.2",
                     "--trace", str(path)]) == 0
        assert f"trace written to {path}" in capsys.readouterr().out
        header, records = load_trace(path)
        assert header["command"] == "run"
        assert "accel" not in header
        assert any(r.get("name") == "point.run" for r in records)

    def test_obs_summarize_digests_a_run_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.jsonl"
        assert main(["run", "--n-voice", "2", "--n-data", "1",
                     "--duration", "0.4", "--warmup", "0.2",
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "point.run" in out and "accel:" not in out
        assert main(["obs", "summarize", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["header"]["command"] == "run"
        assert payload["n_spans"] > 0
        assert main(["obs", "summarize", str(tmp_path / "missing.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def test_run_with_faults_and_retries_recovers(self, capsys):
        code = main([
            "run", "--protocol", "rama", "--n-voice", "4", "--n-data", "1",
            "--duration", "0.4", "--warmup", "0.2",
            "--faults", "crash_every=1,crash_limit=2,seed=5",
            "--retries", "4",
        ])
        assert code == 0
        assert "voice_loss_rate" in capsys.readouterr().out

    def test_run_reports_unrecovered_failure(self, capsys):
        code = main([
            "run", "--protocol", "rama", "--n-voice", "4", "--n-data", "1",
            "--duration", "0.4", "--warmup", "0.2",
            # every attempt crashes and the budget is too small to recover
            "--faults", "crash_every=1", "--retries", "2",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed" in out
        assert "InjectedFault" in out

    def test_fleet_run_and_status(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main([
            "fleet", "run", "--protocols", "rama", "--n-voice", "4",
            "--n-data", "1", "--duration", "0.4", "--warmup", "0.2",
            "--store", store, "--workers", "2", "--ttl", "5",
            "--deadline", "120",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 points completed" in out
        assert "voice_loss_rate" in out
        assert main(["fleet", "status", "--db", store + "/fleet.db"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        code = main(["fleet", "status", "--db", store + "/fleet.db",
                     "--json"])
        assert code == 0
        import json

        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counts"]["done"] == 1
        assert snapshot["points"][0]["state"] == "done"

    def test_profile_json_reports_the_run(self, capsys):
        import json

        code = main([
            "profile", "--json", "--protocol", "rmav", "--n-voice", "3",
            "--n-data", "1", "--duration", "0.2", "--warmup", "0.1",
            "--top", "5",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["frames"] == 40 + 80  # warm-up + measured
        # Five fractions, each rounded to 4 decimals.
        assert sum(report["phase_fraction"].values()) == pytest.approx(
            1.0, abs=5 * 5e-5)
        assert report["dispatches_per_frame"]
        assert len(report["top_functions"]) == 5
        assert report["block_frames"] == 64
        assert "macro_frames" not in report

    def test_selftest_runs_every_executor(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "SerialExecutor" in out
        assert "ParallelExecutor" in out
        # Both executors counted the same contention rounds.
        rounds = {line.split()[0]: line.split(",")[-1].strip()
                  for line in out.splitlines() if "contention rounds" in line}
        assert rounds["SerialExecutor"] == rounds["ParallelExecutor"]
        assert rounds["SerialExecutor"] != "0 contention rounds"
        assert "1-frame == 16-frame blocks for 3 protocols" in out
        assert "ResultStore" in out
        assert "selftest passed" in out

    def test_selftest_flag_spelling(self, capsys):
        assert main(["--selftest"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_selftest_flag_only_aliased_in_first_position(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--selftest"])
        assert "selftest passed" not in capsys.readouterr().out
