"""Tests of the observability layer: tracing, provenance, exporters.

The two guarantees under test, beyond per-class behavior:

* **determinism** — two same-seed experiments produce identical
  provenance sequences (no clocks/pids leak into design decisions), and
  golden digests/summaries are untouched by tracing;
* **zero-cost off switch** — the :data:`~repro.obs.trace.NULL_TRACER`
  records nothing and the default path never allocates spans.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.registry import APP_NAMES
from repro.cli import main
from repro.errors import ConfigurationError
from repro.flow import result_summary, run_experiment
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Tracer,
    active,
    render_provenance,
    timed,
    to_json_snapshot,
    to_prometheus,
    write_metrics,
)
from repro.service.metrics import MetricsRegistry, percentile
from repro.sim.stats import collect_stats, publish_stats
from repro.sim.systems import simulate_proposed


class TestTracer:
    def test_span_records_complete_event(self):
        t = Tracer()
        with t.span("work", category="test", app="jpeg"):
            pass
        (ev,) = t.events
        assert ev.name == "work"
        assert ev.phase == "X"
        assert ev.category == "test"
        assert ev.args == {"app": "jpeg"}
        assert ev.duration_us >= 0.0

    def test_nested_spans_keep_record_order(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        names = [e.name for e in t.events]
        # Inner closes first, so it is recorded first.
        assert names == ["inner", "outer"]
        assert [e.seq for e in t.events] == [0, 1]

    def test_span_recorded_even_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("doomed"):
                raise ValueError("boom")
        assert [e.name for e in t.events] == ["doomed"]

    def test_instant_marker(self):
        t = Tracer()
        t.instant("tick", detail=1)
        (ev,) = t.events
        assert ev.phase == "i"
        assert ev.duration_us == 0.0

    def test_chrome_trace_document_shape(self):
        t = Tracer()
        with t.span("a"):
            pass
        t.instant("b")
        doc = t.to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        complete, instant = doc["traceEvents"]
        assert complete["ph"] == "X" and "dur" in complete
        assert instant["ph"] == "i" and instant["s"] == "t"
        for ev in doc["traceEvents"]:
            assert {"name", "cat", "ts", "pid", "tid"} <= set(ev)
        json.dumps(doc)  # must be serializable as-is

    def test_jsonl_round_trip(self):
        t = Tracer()
        with t.span("x", k="v"):
            pass
        lines = t.to_jsonl().splitlines()
        assert len(lines) == 1
        restored = SpanEvent.from_dict(json.loads(lines[0]))
        assert restored.name == "x"
        assert restored.args == {"k": "v"}

    def test_write_files(self, tmp_path):
        t = Tracer()
        with t.span("x"):
            pass
        chrome = t.write_chrome_trace(tmp_path / "trace.json")
        jsonl = t.write_jsonl(tmp_path / "trace.jsonl")
        assert json.loads(chrome.read_text())["traceEvents"]
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "x"

    def test_merge_preserves_worker_identity_and_reseqs(self):
        worker = Tracer()
        with worker.span("remote"):
            pass
        local = Tracer()
        with local.span("local"):
            pass
        merged = local.merge(worker.as_dicts())
        assert merged == 1
        assert [e.seq for e in local.events] == [0, 1]
        remote = local.events[1]
        assert remote.name == "remote"
        assert remote.pid == worker.events[0].pid


class TestNullTracer:
    def test_records_nothing(self):
        with NULL_TRACER.span("anything", key="value"):
            NULL_TRACER.instant("marker")
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.merge([{"name": "x"}]) == 0
        assert not NULL_TRACER.enabled

    def test_span_context_is_shared_not_allocated(self):
        n = NullTracer()
        assert n.span("a") is n.span("b")

    def test_active_normalizes_none(self):
        assert active(None) is NULL_TRACER
        t = Tracer()
        assert active(t) is t


class TestDeterminism:
    def test_same_seed_runs_identical_provenance(self):
        a = run_experiment("jpeg", simulate=False)
        b = run_experiment("jpeg", simulate=False)
        assert [e.as_dict() for e in a.plan.provenance] == [
            e.as_dict() for e in b.plan.provenance
        ]
        assert len(a.plan.provenance) > 0

    def test_tracing_does_not_perturb_results(self):
        t = Tracer()
        traced = run_experiment("canny", simulate=False, trace=t)
        plain = run_experiment("canny", simulate=False)
        assert result_summary(traced) == result_summary(plain)
        assert [e.as_dict() for e in traced.plan.provenance] == [
            e.as_dict() for e in plain.plan.provenance
        ]
        assert len(t.events) > 0

    def test_null_tracer_run_adds_zero_span_events(self):
        n = NullTracer()
        run_experiment("canny", simulate=False, trace=n)
        assert n.events == ()

    def test_provenance_excluded_from_plan_equality(self, jpeg_result):
        plan = jpeg_result.plan
        import dataclasses

        stripped = dataclasses.replace(plan, provenance=())
        assert stripped == plan


class TestProvenanceContent:
    def test_every_stage_represented(self, jpeg_result):
        stages = {e.stage for e in jpeg_result.plan.provenance}
        assert {
            "config", "select", "duplication", "sharing",
            "classify", "noc", "placement", "pipeline",
        } <= stages

    def test_rejections_carry_reasons(self, jpeg_result):
        rejected = [
            e for e in jpeg_result.plan.provenance if e.outcome == "rejected"
        ]
        assert rejected
        for e in rejected:
            assert e.detail_map.get("reason")

    def test_render_mentions_key_decisions(self, jpeg_result):
        text = render_provenance(jpeg_result.plan)
        assert "Δ_dp" in text
        assert "D_ij" in text
        assert "router(" in text
        assert "Table I" in text

    def test_render_handles_plan_without_provenance(self, jpeg_result):
        import dataclasses

        bare = dataclasses.replace(jpeg_result.plan, provenance=())
        assert "no provenance" in render_provenance(bare)


class TestExplainCli:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_explain_exits_zero(self, app, capsys):
        assert main(["explain", app]) == 0
        out = capsys.readouterr().out
        assert "Design provenance" in out

    def test_explain_json(self, capsys):
        assert main(["explain", "jpeg", "--json"]) == 0
        events = json.loads(capsys.readouterr().out)
        assert events and {"seq", "stage", "subject", "outcome"} <= set(events[0])

    def test_explain_noc_only(self, capsys):
        assert main(["explain", "jpeg", "--noc-only"]) == 0
        assert "maximum attachment" in capsys.readouterr().out


class TestMetricsExtensions:
    def test_percentile_policy(self):
        assert percentile([], 0) == 0.0
        assert percentile([5.0, 1.0, 3.0], 0) == 1.0
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0
        with pytest.raises(ConfigurationError):
            percentile([1.0], -1)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)

    def test_timer_stats_include_p99(self):
        m = MetricsRegistry()
        for v in range(1, 101):
            m.observe("lat", float(v))
        stats = m.timer_stats("lat")
        assert stats["p99_s"] == 99.0
        empty = m.timer_stats("never")
        assert empty == {
            "count": 0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0,
        }

    def test_labelled_series_are_distinct(self):
        m = MetricsRegistry()
        m.incr("reqs", labels={"app": "jpeg"})
        m.incr("reqs", by=2, labels={"app": "canny"})
        assert m.counter("reqs", labels={"app": "jpeg"}) == 1
        assert m.counter("reqs", labels={"app": "canny"}) == 2
        assert m.counter("reqs") == 0
        snap = m.snapshot()
        assert snap["counters"]['reqs{app="jpeg"}'] == 1

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("c", 1)
        b.incr("c", 2)
        a.observe("t", 0.1)
        b.observe("t", 0.3)
        a.gauge("g", 1.0)
        b.gauge("g", 2.0)
        a.merge(b.dump())
        assert a.counter("c") == 3
        assert a.timer_stats("t")["count"] == 2
        assert a.gauge_value("g") == 2.0

    def test_thread_safety_smoke(self):
        import threading

        m = MetricsRegistry()

        def hammer():
            for _ in range(500):
                m.incr("hits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("hits") == 8 * 500

    def test_timed_context_manager(self):
        m = MetricsRegistry()
        with timed(m, "block", labels={"k": "v"}):
            pass
        assert m.timer_stats("block", labels={"k": "v"})["count"] == 1


class TestExporters:
    @staticmethod
    def _populated() -> MetricsRegistry:
        m = MetricsRegistry()
        m.incr("jobs_completed", 3, labels={"app": "jpeg"})
        m.gauge("utilization", 0.5)
        m.observe("latency", 0.2)
        return m

    def test_prometheus_exposition(self):
        text = to_prometheus(self._populated().snapshot())
        assert '# TYPE repro_jobs_completed counter' in text
        assert 'repro_jobs_completed{app="jpeg"} 3' in text
        assert "# TYPE repro_utilization gauge" in text
        assert 'repro_latency_seconds{quantile="0.99"} 0.2' in text
        assert "repro_latency_seconds_count 1" in text

    def test_prometheus_ignores_foreign_keys(self):
        snap = self._populated().snapshot()
        snap["cache"] = {"hits": 1}
        snap["last_mode"] = "serial"
        assert "last_mode" not in to_prometheus(snap)

    def test_json_snapshot_stable(self):
        snap = self._populated().snapshot()
        assert to_json_snapshot(snap) == to_json_snapshot(dict(reversed(list(snap.items()))))

    def test_write_metrics_format_by_suffix(self, tmp_path):
        snap = self._populated().snapshot()
        prom = write_metrics(snap, tmp_path / "m.prom")
        js = write_metrics(snap, tmp_path / "m.json")
        assert prom.read_text().startswith("# TYPE")
        assert json.loads(js.read_text())["counters"]


class TestSimCounters:
    def test_proposed_run_exposes_components(self, jpeg_result):
        components: dict = {}
        times = simulate_proposed(
            jpeg_result.plan,
            jpeg_result.fitted.host_other_s,
            components_out=components,
        )
        assert {"bus", "dma", "engine"} <= set(components)
        stats = collect_stats(
            times,
            bus=components["bus"],
            noc=components.get("noc"),
            dma=components["dma"],
            engine=components["engine"],
        )
        assert stats.engine_events > 0
        assert stats.dma_transfers > 0
        assert stats.dma_peak_queue >= 1
        for link in stats.links:
            assert link.flits >= -(-link.bytes_moved // 4)

    def test_publish_stats_into_registry(self, jpeg_result):
        components: dict = {}
        times = simulate_proposed(
            jpeg_result.plan,
            jpeg_result.fitted.host_other_s,
            components_out=components,
        )
        stats = collect_stats(
            times,
            bus=components["bus"],
            noc=components.get("noc"),
            dma=components["dma"],
            engine=components["engine"],
        )
        m = MetricsRegistry()
        publish_stats(stats, m, system="proposed")
        labels = {"system": "proposed"}
        assert m.counter("sim_engine_events", labels=labels) == stats.engine_events
        assert m.counter("sim_bus_bytes", labels=labels) == stats.bus_bytes
        if stats.links:
            link = stats.links[0]
            link_labels = dict(labels)
            link_labels["src"] = f"{link.src[0]},{link.src[1]}"
            link_labels["dst"] = f"{link.dst[0]},{link.dst[1]}"
            assert m.counter("sim_link_flits", labels=link_labels) == link.flits
        # Exposition of sim series must be valid too.
        assert "repro_sim_engine_events" in to_prometheus(m.snapshot())


class TestServiceInstrumentation:
    def test_service_collects_spans_and_cache_hits(self, tmp_path):
        from repro.service import DesignService
        from repro.service.jobs import DesignJob

        tracer = Tracer()
        service = DesignService(tracer=tracer)
        job = DesignJob(app="canny", simulate=False)
        service.submit(job)
        names = [e.name for e in tracer.events]
        assert "submit_many" in names
        assert "experiment" in names
        before = len(tracer.events)
        service.submit(job)  # second submit: served from cache
        names = [e.name for e in tracer.events[before:]]
        assert "cache_hit" in names
        assert "experiment" not in names

    def test_experiment_trace_path_writes_chrome_json(self, tmp_path):
        out = tmp_path / "exp.json"
        run_experiment("canny", simulate=False, trace=out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases


class TestLabelEscaping:
    """Regression: hostile label values must not corrupt the exposition."""

    def test_escape_label_value(self):
        from repro.obs.export import escape_label_value

        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value(42) == "42"
        assert escape_label_value("plain") == "plain"

    def test_metric_key_escapes_values(self):
        from repro.service.metrics import metric_key

        key = metric_key("jobs", {"app": 'a"b\n'})
        assert key == 'jobs{app="a\\"b\\n"}'

    def test_hostile_label_round_trips_through_exposition(self):
        from repro.obs.export import to_prometheus

        registry = MetricsRegistry()
        registry.incr("jobs", labels={"app": 'evil"} repro_fake 1\n'})
        text = to_prometheus(registry.snapshot())
        # One declaration, one sample — the injected newline/quote must
        # not have produced an extra exposition line.
        lines = [l for l in text.strip().splitlines() if l]
        assert len(lines) == 2
        assert lines[1].startswith('repro_jobs{app="evil\\"} repro_fake')
        assert "repro_fake 1" not in lines[0]

    def test_distinct_hostile_values_stay_distinct_series(self):
        from repro.service.metrics import metric_key

        # Unescaped, both would collapse to the same key.
        a = metric_key("m", {"k": 'x"y'})
        b = metric_key("m", {"k": 'x\\"y'})
        assert a != b
