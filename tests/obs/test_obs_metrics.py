"""Metrics registry: recording semantics and the no-op default."""

import threading

import pytest

from repro.obs import metrics


class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = metrics.MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.gauge("g", 7.5)
        reg.gauge("g", 2.5)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["gauges"]["g"] == 2.5  # last write wins
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 4.0
        assert hist["min"] == 1.0 and hist["max"] == 3.0
        assert reg.counter("a") == 3
        assert reg.counter("nope") == 0

    def test_reset_empties_everything(self):
        reg = metrics.MetricsRegistry()
        reg.inc("a")
        reg.gauge("g", 1.0)
        reg.observe("h", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_is_a_copy(self):
        reg = metrics.MetricsRegistry()
        reg.inc("a")
        snap = reg.snapshot()
        snap["counters"]["a"] = 999
        assert reg.counter("a") == 1

    def test_merge_folds_another_registrys_snapshot(self):
        # What a pool worker ships back: counters add, histograms fold,
        # gauges take the incoming value.
        caller, worker = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        caller.inc("a", 2)
        caller.gauge("g", 1.0)
        caller.observe("h", 5.0)
        worker.inc("a", 3)
        worker.inc("b")
        worker.gauge("g", 4.0)
        for value in (2.0, 9.0):
            worker.observe("h", value)
            worker.observe("fresh", value)
        worker.observe("empty", 1.0)
        shipped = worker.snapshot()
        shipped["histograms"]["empty"] = {
            "count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0}
        caller.merge(shipped)
        snap = caller.snapshot()
        assert snap["counters"] == {"a": 5.0, "b": 1.0}
        assert snap["gauges"] == {"g": 4.0}
        assert snap["histograms"]["h"] == {
            "count": 3.0, "sum": 16.0, "min": 2.0, "max": 9.0}
        assert snap["histograms"]["fresh"] == {
            "count": 2.0, "sum": 11.0, "min": 2.0, "max": 9.0}
        assert "empty" not in snap["histograms"]
        metrics.NULL.merge(shipped)
        assert metrics.NULL.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_thread_safety_of_inc(self):
        reg = metrics.MetricsRegistry()

        def bump():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 4000


class TestNullDefault:
    def test_default_is_disabled_and_inert(self):
        assert metrics.METRICS is metrics.NULL
        assert not metrics.METRICS.enabled
        metrics.METRICS.inc("x")
        metrics.METRICS.gauge("g", 1.0)
        metrics.METRICS.observe("h", 1.0)
        snap = metrics.METRICS.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_install_uninstall_rebinds_module_global(self):
        reg = metrics.MetricsRegistry()
        metrics.install(reg)
        try:
            assert metrics.METRICS is reg
            assert metrics.METRICS.enabled
        finally:
            metrics.uninstall()
        assert metrics.METRICS is metrics.NULL

    def test_recording_context_restores_previous(self):
        with metrics.recording() as outer:
            outer.inc("outer")
            with metrics.recording() as inner:
                inner.inc("inner")
                assert metrics.METRICS is inner
            assert metrics.METRICS is outer
            assert outer.counter("inner") == 0
        assert metrics.METRICS is metrics.NULL

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with metrics.recording():
                raise RuntimeError("boom")
        assert metrics.METRICS is metrics.NULL

    def test_hot_site_pattern_records_only_when_enabled(self):
        # The pattern every instrumented call site uses.
        def hot_site():
            m = metrics.METRICS
            if m.enabled:
                m.inc("hits")

        hot_site()
        with metrics.recording() as reg:
            hot_site()
            hot_site()
        hot_site()
        assert reg.counter("hits") == 2
