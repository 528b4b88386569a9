"""Tests for ``repro.obs.flight``: recorder, watchdog, report.

The unit halves drive everything with fake clocks and explicit
``check_once`` calls — no sleeping, no real threads where determinism
matters. The e2e half boots a real server and proves
the acceptance criteria: flight capture never perturbs served results,
a dump round-trips through ``repro postmortem``, and a tripped watchdog
degrades ``/readyz`` and writes a dump.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.io import FORMAT_VERSION, canonical_json, save_json
from repro.obs.flight import (
    FLIGHT_KIND,
    FlightRecorder,
    Heartbeat,
    RingTracer,
    StallWatchdog,
    build_flight_report,
    load_flight_report,
    render_flight_report,
    thread_stacks,
    write_flight_dump,
)
from repro.obs.flight.report import frame_label
from repro.obs.runtime.events import EventLog
from repro.obs.trace import Tracer
from repro.service.metrics import MetricsRegistry


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestRingTracer:
    def test_ring_keeps_newest_spans_with_monotonic_seq(self):
        tracer = RingTracer(capacity=3)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        events = tracer.events
        assert len(events) == 3
        assert [e.name for e in events] == ["s7", "s8", "s9"]
        # seq keeps counting across evictions — order survives the wrap
        assert [e.seq for e in events] == [7, 8, 9]
        assert tracer.recorded == 10

    def test_merge_respects_capacity(self):
        tracer = RingTracer(capacity=2)
        with tracer.span("local"):
            pass
        worker = Tracer()
        with worker.span("w1"):
            pass
        with worker.span("w2"):
            pass
        merged = tracer.merge([e.as_dict() for e in worker.events])
        assert merged == 2
        assert [e.name for e in tracer.events] == ["w1", "w2"]
        assert tracer.recorded == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            RingTracer(capacity=0)


class TestFlightRecorder:
    def test_snapshot_ring_is_bounded_and_aged(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        recorder = FlightRecorder(
            registry=registry, snapshot_capacity=2,
            snapshot_interval_s=5.0, clock=clock,
        )
        for _ in range(4):
            assert recorder.snapshot_metrics()
            clock.advance(1.0)
        snaps = recorder.snapshots()
        assert len(snaps) == 2
        # oldest kept snapshot was taken 2s ago, newest 1s ago
        assert [s["age_s"] for s in snaps] == [2.0, 1.0]
        assert "counters" in snaps[0]["metrics"]

    def test_maybe_snapshot_rate_limits(self):
        clock = FakeClock()
        recorder = FlightRecorder(
            registry=MetricsRegistry(), snapshot_interval_s=5.0,
            clock=clock,
        )
        assert recorder.maybe_snapshot()      # first is always due
        assert not recorder.maybe_snapshot()  # same instant: suppressed
        clock.advance(4.9)
        assert not recorder.maybe_snapshot()
        clock.advance(0.2)
        assert recorder.maybe_snapshot()

    def test_no_registry_is_inert(self):
        recorder = FlightRecorder()
        assert not recorder.snapshot_metrics()
        assert not recorder.maybe_snapshot()
        assert recorder.snapshots() == []

    def test_rings_collect_all_three_sources(self):
        tracer = RingTracer(capacity=8)
        events = EventLog(capacity=8)
        recorder = FlightRecorder(
            tracer=tracer, events=events, registry=MetricsRegistry(),
        )
        with tracer.span("design"):
            pass
        events.emit("cache_hit", trace_id="t1")
        recorder.snapshot_metrics()
        rings = recorder.rings()
        assert [s["name"] for s in rings["spans"]] == ["design"]
        assert [e["kind"] for e in rings["events"]] == ["cache_hit"]
        assert len(rings["metric_snapshots"]) == 1
        state = recorder.state()
        assert state["spans"] == 1
        assert state["events"] == 1
        assert state["metric_snapshots"] == 1

    def test_validates_config(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(snapshot_capacity=0)
        with pytest.raises(ConfigurationError):
            FlightRecorder(snapshot_interval_s=0.0)


class TestWatchdog:
    def test_heartbeat_budget(self):
        clock = FakeClock()
        beat = Heartbeat("loop", max_age_s=2.0, clock=clock)
        assert beat.check() is None
        clock.advance(2.5)
        message = beat.check()
        assert message is not None and "2.50s" in message
        beat.beat()
        assert beat.check() is None

    def test_trip_and_clear_are_edge_triggered(self):
        clock = FakeClock()
        events = EventLog(capacity=16)
        trips, clears = [], []
        dog = StallWatchdog(
            interval_s=0.25, events=events, clock=clock,
            on_trip=lambda s, m: trips.append((s, m)),
            on_clear=clears.append,
        )
        beat = dog.heartbeat("loop", max_age_s=1.0)
        assert dog.check_once() == []
        clock.advance(5.0)
        # three consecutive stalled checks: exactly one trip edge
        for _ in range(3):
            assert dog.check_once()
        assert len(trips) == 1 and trips[0][0] == "loop"
        assert dog.tripped and dog.trips == 1
        beat.beat()
        assert dog.check_once() == []
        assert clears == ["loop"]
        assert not dog.tripped
        kinds = [e.kind for e in events.events()]
        assert kinds == ["watchdog_trip", "watchdog_clear"]

    def test_raising_probe_counts_as_stall(self):
        dog = StallWatchdog()

        def broken() -> None:
            raise RuntimeError("boom")

        dog.probe("pool", broken)
        stalls = dog.check_once()
        assert len(stalls) == 1
        assert "RuntimeError" in stalls[0][1]

    def test_status_reports_checks_and_stalls(self):
        clock = FakeClock()
        dog = StallWatchdog(clock=clock)
        dog.heartbeat("loop", max_age_s=1.0)
        dog.probe("batcher", lambda: None)
        clock.advance(9.0)
        dog.check_once()
        status = dog.status()
        assert status["checks"] == ["loop", "batcher"]
        assert "loop" in status["stalled"]
        assert status["trips"] == 1
        assert status["running"] is False

    def test_thread_lifecycle_is_idempotent(self):
        dog = StallWatchdog(interval_s=0.01)
        dog.start()
        dog.start()
        assert dog.status()["running"]
        dog.stop()
        dog.stop()
        assert not dog.status()["running"]

    def test_validates_interval(self):
        with pytest.raises(ConfigurationError):
            StallWatchdog(interval_s=0.0)
        with pytest.raises(ConfigurationError):
            Heartbeat("x", max_age_s=0.0)


class TestFlightReport:
    def test_frame_label_shapes(self):
        assert frame_label("/a/b/pkg/mod.py", "fn") == "fn (pkg/mod.py)"
        assert frame_label("/a/pkg/mod.py", "fn", 7) == "fn (pkg/mod.py:7)"

    def test_thread_stacks_include_this_function(self):
        rows = thread_stacks()
        me = threading.get_ident()
        mine = next(r for r in rows if r["tid"] == me)
        assert mine["name"] == threading.current_thread().name
        assert any("test_thread_stacks_include_this_function" in label
                   for label in mine["stack"])

    def test_build_write_load_render_roundtrip(self, tmp_path):
        tracer = RingTracer(capacity=8)
        with tracer.span("design", category="pipeline"):
            pass
        events = EventLog(capacity=8)
        events.emit("request_start", trace_id="ab" * 16, route="/v1/design")
        registry = MetricsRegistry()
        registry.incr("http_requests")
        recorder = FlightRecorder(
            tracer=tracer, events=events, registry=registry
        )
        recorder.snapshot_metrics()
        dog = StallWatchdog()
        dog.probe("pool", lambda: "wedged")
        dog.check_once()

        doc = build_flight_report(
            "unit-test", recorder=recorder, watchdog=dog,
            state={"admission": {"inflight": 0}},
        )
        assert doc["kind"] == FLIGHT_KIND
        assert doc["version"] == FORMAT_VERSION
        path = write_flight_dump(doc, tmp_path)
        assert path.name.startswith("flight-") and path.suffix == ".json"

        loaded = load_flight_report(path)
        assert loaded["reason"] == "unit-test"
        text = render_flight_report(loaded)
        assert "flight report: unit-test" in text
        assert "STALLED pool: wedged" in text
        assert "request_start" in text
        assert "design" in text
        assert "admission" in text

    def test_repeated_dumps_never_overwrite(self, tmp_path):
        doc = build_flight_report("again")
        first = write_flight_dump(doc, tmp_path)
        second = write_flight_dump(doc, tmp_path)
        assert first != second
        assert first.exists() and second.exists()

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "not-flight.json"
        save_json({"kind": "loadtest-report", "version": FORMAT_VERSION},
                  path)
        with pytest.raises(ConfigurationError):
            load_flight_report(path)

    def test_render_tolerates_minimal_document(self):
        text = render_flight_report({
            "kind": FLIGHT_KIND, "version": FORMAT_VERSION,
            "reason": "bare", "ts": 0.0, "pid": 1, "python": "3",
            "threads": [], "rings": {}, "watchdog": None, "state": {},
        })
        assert "flight report: bare" in text


class TestEventLogRotation:
    def test_sink_rotates_at_size_and_keeps_one_backup(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=8, sink=str(path), sink_max_bytes=400)
        for i in range(40):
            log.emit("cache_hit", trace_id=f"t{i:02d}")
        log.close()
        assert log.rotations >= 1
        backup = tmp_path / "events.jsonl.1"
        assert backup.exists()
        # every line in both files is intact JSON of the right kind
        for file in (path, backup):
            for line in file.read_text().splitlines():
                assert json.loads(line)["kind"] == "cache_hit"
        assert path.stat().st_size <= 400

    def test_no_limit_never_rotates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=8, sink=str(path))
        for _ in range(50):
            log.emit("cache_hit")
        log.close()
        assert log.rotations == 0
        assert not (tmp_path / "events.jsonl.1").exists()

    def test_rejects_nonpositive_limit(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=8, sink=str(tmp_path / "e.jsonl"),
                     sink_max_bytes=0)


@pytest.fixture(scope="module")
def flight_server(tmp_path_factory):
    from repro.server import ServerConfig, start_in_thread

    flight_dir = tmp_path_factory.mktemp("flight")
    config = ServerConfig(
        port=0, quota_rate=10_000.0, quota_burst=10_000.0,
        flight_dir=str(flight_dir),
        watchdog_interval_s=0.05,
    )
    handle = start_in_thread(config)
    yield handle, flight_dir
    handle.stop()


class TestServerFlightEndToEnd:
    def test_served_results_identical_with_flight_recorder(
        self, flight_server
    ):
        from repro.flow import result_summary, run_experiment
        from repro.server import DesignClient

        handle, _ = flight_server
        client = DesignClient(handle.url, tenant="pytest")
        doc = client.design("klt")
        served = canonical_json(doc["summary"]).encode()
        local = canonical_json(result_summary(run_experiment("klt"))).encode()
        assert served == local

    def test_debug_reports_flight_section(self, flight_server):
        from repro.server import DesignClient

        handle, _ = flight_server
        client = DesignClient(handle.url, tenant="pytest")
        client.design("canny")
        flight = client.debug()["debug"]["flight"]
        assert flight["recorder"]["spans"] > 0
        assert "event_loop" in flight["watchdog"]["checks"]
        assert "executor" in flight["watchdog"]["checks"]
        assert flight["watchdog"]["running"] is True
        assert flight["stalled"] is None

    def test_flight_dump_parses_and_renders(self, flight_server):
        from repro.cli import main
        from repro.server import DesignClient

        handle, flight_dir = flight_server
        client = DesignClient(handle.url, tenant="pytest")
        client.design("jpeg")
        path = handle.server.flight_dump("test-trigger")
        assert path.parent == flight_dir
        doc = load_flight_report(path)
        assert doc["reason"] == "test-trigger"
        assert doc["state"]["admission"]["draining"] is False
        assert doc["state"]["service"]["jobs_submitted"] >= 1
        names = [t["name"] for t in doc["threads"]]
        assert "repro-server" in names
        kinds = {e["kind"] for e in doc["rings"]["events"]}
        assert "request_start" in kinds
        # a dump logs itself *after* capture, so it shows in later dumps
        second = load_flight_report(handle.server.flight_dump("second"))
        assert "flight_dump" in {
            e["kind"] for e in second["rings"]["events"]
        }
        # and the CLI renders it
        assert main(["postmortem", str(path)]) == 0
        assert main(["postmortem", str(path), "--json"]) == 0

    def test_top_json_is_machine_readable(self, flight_server, capsys):
        from repro.cli import main

        handle, _ = flight_server
        assert main(["top", "--url", handle.url, "--json"]) == 0
        out = capsys.readouterr().out
        assert "\x1b[" not in out  # no ANSI screen control
        doc = json.loads(out)
        assert doc["kind"] == "debug-response"
        debug = doc["debug"]
        assert "flight" in debug and "admission" in debug
        assert debug["flight"]["watchdog"]["running"] is True

    def test_watchdog_trip_degrades_readyz_and_dumps(self, flight_server):
        import urllib.error
        import urllib.request

        handle, flight_dir = flight_server
        server = handle.server
        before = set(flight_dir.glob("flight-*.json"))
        # Wedge a probe artificially; the real watchdog thread must
        # notice, flip /readyz to 503, and write a dump.
        server.watchdog.probe("unit_wedge", lambda: "forced stall")
        deadline = time.monotonic() + 5.0
        status = None
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    handle.url + "/readyz", timeout=5
                ) as resp:
                    status = resp.status
            except urllib.error.HTTPError as err:
                status = err.code
            if status == 503:
                break
            time.sleep(0.02)
        assert status == 503
        new = set(flight_dir.glob("flight-*.json")) - before
        assert new, "watchdog trip should write a flight dump"
        doc = load_flight_report(sorted(new)[0])
        assert doc["reason"] == "watchdog:unit_wedge"
        assert "unit_wedge" in doc["watchdog"]["stalled"]
