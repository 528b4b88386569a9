"""Tests for ``repro.obs.runtime``: trace context, event log, debug.

Covers the W3C traceparent round-trip and tolerant parsing, the typed
structured event log (ring, sink, sanitization, null object), the
``render_top`` dashboard renderer, and the consistent-snapshot
guarantee of ``MetricsRegistry`` under concurrent scrapes.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.obs.runtime import (
    DEFAULT_TENANT,
    EVENT_KINDS,
    NULL_LOG,
    EventLog,
    NullEventLog,
    TraceContext,
    new_trace_context,
    parse_traceparent,
)
from repro.obs.runtime.debug import render_top
from repro.service.metrics import MetricsRegistry


class TestTraceContext:
    def test_new_context_shape(self):
        ctx = new_trace_context()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16)  # both are hex
        int(ctx.span_id, 16)
        assert ctx.sampled

    def test_traceparent_roundtrip(self):
        ctx = new_trace_context()
        parsed = parse_traceparent(ctx.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id
        assert parsed.sampled == ctx.sampled

    def test_child_keeps_trace_id_fresh_span(self):
        ctx = new_trace_context()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id

    def test_unsampled_flag(self):
        header = f"00-{'a' * 32}-{'b' * 16}-00"
        parsed = parse_traceparent(header)
        assert parsed is not None and not parsed.sampled

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-zz-bb-01",                         # non-hex ids
        f"00-{'0' * 32}-{'b' * 16}-01",        # all-zero trace id
        f"00-{'a' * 32}-{'0' * 16}-01",        # all-zero span id
        f"00-{'a' * 31}-{'b' * 16}-01",        # short trace id
        f"ff-{'a' * 32}-{'b' * 16}-01",        # forbidden version
        f"00-{'a' * 32}-{'b' * 16}-01-extra",  # v00 must be 4 parts
        f"00-{'a' * 32}-{'b' * 16}",           # missing flags
        42,                                    # not a string at all
    ])
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_parse_is_case_tolerant_on_input(self):
        header = f"00-{'A' * 32}-{'b' * 16}-01"
        parsed = parse_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == "a" * 32


class TestEventLog:
    def test_emit_and_read_back(self):
        log = EventLog(capacity=8)
        event = log.emit("cache_hit", trace_id="t1", tenant="team-a",
                         app="jpeg")
        assert event is not None
        assert event.kind == "cache_hit"
        assert event.trace_id == "t1"
        assert event.fields == {"app": "jpeg"}
        assert [e.kind for e in log.events()] == ["cache_hit"]

    def test_unknown_kind_is_loud(self):
        log = EventLog(capacity=8)
        with pytest.raises(ConfigurationError) as err:
            log.emit("made_up_kind")
        assert "made_up_kind" in str(err.value)

    def test_ring_trims_to_capacity(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("cache_miss", trace_id=f"t{i}")
        events = log.events()
        assert len(events) == 3
        assert [e.trace_id for e in events] == ["t7", "t8", "t9"]
        # counts survive the trim — they are totals, not ring contents
        assert log.counts()["cache_miss"] == 10

    def test_tail(self):
        log = EventLog(capacity=16)
        for i in range(5):
            log.emit("cache_miss", size=i)
        assert [e.fields["size"] for e in log.tail(2)] == [3, 4]

    def test_tenant_is_sanitized(self):
        log = EventLog(capacity=4)
        event = log.emit("quota_reject", tenant="evil\nteam\x00")
        assert event is not None
        assert event.tenant == "evilteam"

    def test_empty_tenant_falls_back_to_default(self):
        log = EventLog(capacity=4)
        event = log.emit("request_start", tenant="\x00\x01")
        assert event is not None
        assert event.tenant == DEFAULT_TENANT

    def test_hostile_field_values_are_scrubbed(self):
        log = EventLog(capacity=4)
        event = log.emit("request_finish", route="/x\r\ny", big="a" * 999)
        assert event is not None
        assert "\n" not in event.fields["route"]
        assert len(event.fields["big"]) <= 256

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, sink=str(path))
        log.emit("drain_begin", trace_id="tid")
        log.emit("drain_done", clean=True)
        log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [d["kind"] for d in lines] == ["drain_begin", "drain_done"]
        assert lines[0]["trace_id"] == "tid"
        assert lines[1]["fields"]["clean"] is True

    def test_to_jsonl_matches_events(self):
        log = EventLog(capacity=4)
        log.emit("pool_recycle", reason="broken")
        docs = [json.loads(l) for l in log.to_jsonl().splitlines()]
        assert docs == [e.as_dict() for e in log.events()]

    def test_metric_counts_use_metric_key_escaping(self):
        log = EventLog(capacity=4)
        log.emit("cache_hit")
        log.emit("cache_hit")
        counts = log.metric_counts()
        assert counts['runtime_events{kind="cache_hit"}'] == 2

    def test_event_kinds_is_closed_and_sorted_emits_work(self):
        log = EventLog(capacity=len(EVENT_KINDS))
        for kind in sorted(EVENT_KINDS):
            assert log.emit(kind) is not None
        assert sum(log.counts().values()) == len(EVENT_KINDS)

    def test_concurrent_emitters_lose_nothing(self):
        log = EventLog(capacity=10_000)
        def hammer():
            for _ in range(200):
                log.emit("cache_miss")
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.counts()["cache_miss"] == 8 * 200
        seqs = [e.seq for e in log.events()]
        assert seqs == sorted(seqs)


class TestNullEventLog:
    def test_null_log_is_disabled_and_inert(self):
        assert isinstance(NULL_LOG, NullEventLog)
        assert not NULL_LOG.enabled
        assert NULL_LOG.emit("cache_hit", trace_id="x") is None
        assert NULL_LOG.events() == ()
        assert NULL_LOG.counts() == {}
        assert NULL_LOG.metric_counts() == {}

    def test_null_log_swallows_unknown_kinds(self):
        # Disabled telemetry must never be the thing that raises.
        assert NULL_LOG.emit("not_a_kind") is None

    def test_service_results_identical_with_and_without_log(self):
        """The log observes; it must not perturb designed results."""
        from repro.service import DesignJob, DesignService

        job = DesignJob(app="klt", simulate=False)
        with DesignService(jobs=1) as silent:
            baseline = silent.submit(job).summary
        log = EventLog(capacity=64)
        with DesignService(jobs=1, events=log) as observed:
            traced = observed.submit(job).summary
        assert traced == baseline
        assert log.counts().get("cache_miss", 0) >= 1


class TestTraceThreading:
    def test_submit_many_validates_trace_id_length(self):
        from repro.service import DesignJob, DesignService

        with DesignService(jobs=1) as service:
            with pytest.raises(ServiceError):
                service.submit_many(
                    [DesignJob(app="klt", simulate=False)],
                    trace_ids=["a", "b"],
                )

    def test_job_span_carries_trace_id(self):
        from repro.obs.trace import Tracer
        from repro.service import DesignJob, DesignService

        tracer = Tracer()
        with DesignService(jobs=1, tracer=tracer) as service:
            service.submit_many(
                [DesignJob(app="klt", simulate=False)],
                trace_ids=["feedbeef" * 4],
            )
        jobs = [e for e in tracer.events if e.name == "job"]
        assert jobs and jobs[0].args["trace_id"] == "feedbeef" * 4


class TestRenderTop:
    DOC = {
        "kind": "debug-response",
        "trace_id": "t" * 32,
        "debug": {
            "uptime_s": 12.5,
            "inflight_requests": [
                {"trace_id": "a" * 32, "route": "/v1/design",
                 "tenant": "team-a", "age_s": 0.25},
            ],
            "admission": {
                "inflight": 2, "max_inflight": 8,
                "queue_depth": 1, "max_queue": 32,
                "capacity": 40, "rejected": 3, "draining": False,
                "latency_ewma_s": 0.004,
            },
            "executor": {"inflight": 1, "oldest_age_s": 0.012},
            "tenants": {"team-a": {"remaining": 20.0, "burst": 100.0,
                                   "rate": 50.0}},
            "cache": {"hits_memory": 3, "hits_disk": 2, "misses": 4},
            "service": {"jobs_submitted": 9, "jobs_completed": 9,
                        "jobs_coalesced": 0, "jobs_joined": 0,
                        "jobs_failed": 0, "last_mode": "serial"},
            "events": {
                "counts": {"request_start": 9},
                "recent": [
                    {"seq": 1, "ts": 1.0, "kind": "request_start",
                     "trace_id": "a" * 32, "route": "/v1/design"},
                ],
            },
        },
    }

    def test_renders_every_section(self):
        screen = render_top(self.DOC)
        assert "repro top" in screen
        assert "serving" in screen
        assert "/v1/design" in screen
        assert "team-a" in screen
        assert "request_start" in screen
        assert "executor: 1 in flight, oldest 12.0ms" in screen
        assert "cache: 5 hits / 4 misses" in screen

    def test_accepts_bare_debug_body(self):
        screen = render_top(self.DOC["debug"])
        assert "repro top" in screen

    def test_draining_state_is_visible(self):
        doc = json.loads(json.dumps(self.DOC))
        doc["debug"]["admission"]["draining"] = True
        assert "DRAINING" in render_top(doc)

    def test_exemplar_lines_from_metrics_text(self):
        metrics = (
            "# TYPE repro_http_request_last_seconds gauge\n"
            'repro_http_request_last_seconds{route="/v1/design",'
            'trace_id="abc"} 0.001\n'
        )
        screen = render_top(self.DOC, metrics_text=metrics)
        assert 'route="/v1/design"' in screen

    def test_degrades_on_missing_sections(self):
        assert "repro top" in render_top({})

    def test_cache_hits_sum_both_tiers_of_a_live_service(self, tmp_path):
        # /v1/debug's cache section is CacheStats.as_dict(): it carries
        # hits_memory and hits_disk, and no plain "hits".
        from repro.server import DesignClient, ServerConfig, start_in_thread
        from repro.service import DesignJob, DesignService, ResultCache

        service = DesignService(
            cache=ResultCache(capacity=1, cache_dir=tmp_path)
        )
        a = DesignJob("klt", simulate=False)
        b = DesignJob("klt", seed=7, simulate=False)
        service.submit(a)  # miss
        service.submit(b)  # miss; evicts a from the one-entry memory tier
        assert service.submit(a).cached  # disk hit
        assert service.submit(a).cached  # memory hit
        with start_in_thread(ServerConfig(port=0), service=service) as handle:
            doc = DesignClient(handle.url).debug()
        cache = doc["debug"]["cache"]
        assert (cache["hits_memory"], cache["hits_disk"]) == (1, 1)
        assert "cache: 2 hits / 2 misses" in render_top(doc)


class TestConsistentScrape:
    def test_snapshot_is_consistent_under_concurrent_observe(self):
        """Regression: snapshot() once re-read live timer lists after
        releasing the lock, so a concurrent observe() could mutate a
        list mid-``sorted`` or interleave half-updated series."""
        registry = MetricsRegistry()
        stop = threading.Event()
        errors: list = []

        def writer():
            i = 0
            while not stop.is_set():
                registry.observe("lat", float(i % 100) / 1000.0)
                registry.incr("hits")
                i += 1

        def scraper():
            try:
                for _ in range(200):
                    snap = registry.snapshot()
                    stats = snap["timers"].get("lat")
                    if stats and stats["count"]:
                        assert stats["p50_s"] <= stats["p99_s"]
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        scrapers = [threading.Thread(target=scraper) for _ in range(2)]
        for t in writers + scrapers:
            t.start()
        for t in scrapers:
            t.join()
        stop.set()
        for t in writers:
            t.join()
        assert errors == []
