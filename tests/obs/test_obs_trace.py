"""Tracer: JSON-lines round-trip, schema versioning, span nesting."""

import json

import pytest

from repro.obs.summary import format_summary, load_trace, summarize_trace
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    JsonLinesTraceSink,
    ListTraceSink,
    Tracer,
    install_tracer,
    span,
    tracing,
    uninstall_tracer,
)


class TestTracerCore:
    def test_header_written_first_with_schema_version(self):
        sink = ListTraceSink()
        Tracer(sink, meta={"command": "test"})
        (header,) = sink.records
        assert header["record"] == "header"
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        assert header["clock"] == "perf_counter"
        assert header["command"] == "test"

    def test_nesting_is_reconstructed_from_parent_ids(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                tracer.event("tick", n=1)
        spans = {r["name"]: r for r in sink.records if r["record"] == "span"}
        events = [r for r in sink.records if r["record"] == "event"]
        outer = spans["outer"]
        assert spans["inner.a"]["parent"] == outer["id"]
        assert spans["inner.b"]["parent"] == outer["id"]
        assert outer["parent"] is None
        assert events[0]["parent"] == spans["inner.b"]["id"]
        # File order is completion order: children close before the parent.
        names = [r["name"] for r in sink.records if r["record"] == "span"]
        assert names == ["inner.a", "inner.b", "outer"]

    def test_span_durations_are_nonnegative_and_attrs_survive(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        with tracer.span("work", frames=16, protocol="rmav"):
            pass
        (record,) = [r for r in sink.records if r["record"] == "span"]
        assert record["duration_s"] >= 0.0
        assert record["attrs"] == {"frames": 16, "protocol": "rmav"}

    def test_close_ends_open_spans(self):
        sink = ListTraceSink()
        tracer = Tracer(sink)
        tracer.begin("dangling")
        tracer.close()
        names = [r["name"] for r in sink.records if r["record"] == "span"]
        assert names == ["dangling"]
        assert tracer.depth == 0


class TestJsonLinesRoundTrip:
    def test_round_trip_preserves_every_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(path, meta={"command": "round-trip"}):
            with span("outer", k=1):
                with span("phase.mac"):
                    pass
        header, records = load_trace(path)
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        assert header["command"] == "round-trip"
        assert [r["name"] for r in records] == ["phase.mac", "outer"]
        summary = summarize_trace(path)
        assert summary.n_spans == 2
        assert summary.by_name("outer").count == 1
        assert "phase.mac" in format_summary(summary)

    def test_header_extra_fields_load_and_do_not_render(self, tmp_path):
        # Older traces carried an ``accel`` provenance field; the loader
        # checks only the record type and the schema version.
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join(json.dumps(record) for record in (
            {"record": "header", "schema_version": TRACE_SCHEMA_VERSION,
             "command": "run", "accel": {"deadline_scan": "numpy"}},
            {"record": "span", "name": "phase.mac", "id": 1,
             "parent": None, "duration_s": 0.5},
        )) + "\n", encoding="utf-8")
        header, records = load_trace(path)
        assert header["accel"] == {"deadline_scan": "numpy"}
        assert [r["name"] for r in records] == ["phase.mac"]
        summary = summarize_trace(path)
        assert summary.phase_seconds() == {"mac": 0.5}
        text = format_summary(summary)
        assert "phase.mac" in text
        assert "accel" not in text and "deadline_scan" not in text

    def test_pool_workers_leave_the_trace_to_the_parent(self, tmp_path):
        # Forked pool workers inherit the tracer and its unflushed file
        # buffer; they must run untraced and never write the parent's file.
        from repro.api import ExperimentSpec, ParallelExecutor, SweepAxis, run
        from repro.cli import main
        from repro.sim.scenario import Scenario

        spec = ExperimentSpec(
            protocols=("charisma", "dtdma_fr"),
            base_scenario=Scenario(protocol="charisma", n_voice=0, n_data=1,
                                   duration_s=0.4, warmup_s=0.2),
            axes=(SweepAxis("n_voice", (2, 4)),),
            seeds=(0, 1),
        )
        path = tmp_path / "pool.jsonl"
        with tracing(path, meta={"command": "pool"}):
            run(spec, executor=ParallelExecutor(n_workers=2))
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["record"] for r in records].count("header") == 1
        assert not any(r.get("name") == "engine.run" for r in records)
        assert main(["obs", "summarize", str(path)]) == 0

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonLinesTraceSink(tmp_path / "t.jsonl")
        sink.write({"record": "header"})
        sink.close()
        with pytest.raises(ValueError):
            sink.write({"record": "span"})

    def test_newer_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({
            "record": "header",
            "schema_version": TRACE_SCHEMA_VERSION + 1,
        }) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="newer than supported"):
            load_trace(path)

    def test_corrupt_line_and_missing_header_are_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "header", "schema_version": 1}\n{oops\n',
                       encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt trace line"):
            load_trace(bad)
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"record": "span", "name": "x"}\n',
                            encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_trace(headless)


class TestModuleLevelTracer:
    def test_span_is_noop_without_installed_tracer(self):
        with span("nobody.listening"):
            pass  # must not raise

    def test_install_replaces_and_uninstall_clears(self):
        first, second = ListTraceSink(), ListTraceSink()
        install_tracer(first)
        try:
            with span("one"):
                pass
            install_tracer(second)
            with span("two"):
                pass
        finally:
            uninstall_tracer()
        assert [r["name"] for r in first.records
                if r["record"] == "span"] == ["one"]
        assert [r["name"] for r in second.records
                if r["record"] == "span"] == ["two"]
        with span("three"):
            pass  # no tracer installed: no-op
