"""Tests for ``repro.server``: protocol, quota, admission, HTTP e2e.

The unit halves (protocol parsing, token-bucket math under a fake
clock, tenant sanitization, admission accounting) run with no sockets.
The e2e half boots one real server on an ephemeral port per test class
via :func:`repro.server.start_in_thread` and drives it with the
blocking :class:`repro.server.DesignClient` — the same path CI's smoke
job exercises externally.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import threading
import time

import pytest

from repro.errors import ConfigurationError, ProtocolError, ServerError
from repro.flow import result_summary, run_experiment
from repro.io import canonical_json
from repro.obs.export import to_prometheus
from repro.server import (
    AdmissionController,
    DesignClient,
    QuotaManager,
    ServerConfig,
    sanitize_tenant,
    start_in_thread,
)
from repro.server import protocol
from repro.server.http import parse_sse_stream
from repro.server.quota import DEFAULT_TENANT, MAX_TENANT_CHARS
from repro.service.metrics import MetricsRegistry, metric_key


class TestProtocol:
    def test_design_request_roundtrip(self):
        job = protocol.parse_design_request({
            "app": "klt", "scale": 2, "seed": 7, "simulate": False,
            "params": {"bus_width_bytes": 4},
            "design": {"enable_sharing": False},
        })
        assert job.app == "klt" and job.scale == 2 and job.seed == 7
        assert not job.simulate
        assert job.params.bus_width_bytes == 4
        assert job.design_overrides == {"enable_sharing": False}

    def test_design_request_rejects_unknown_fields(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_design_request({"app": "klt", "scle": 2})
        assert err.value.status == 400
        assert "scle" in str(err.value)

    def test_design_request_rejects_unknown_param(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_design_request(
                {"app": "klt", "params": {"no_such_knob": 1}}
            )
        assert err.value.status == 400

    def test_design_request_needs_app(self):
        with pytest.raises(ProtocolError):
            protocol.parse_design_request({"scale": 1})

    @pytest.mark.parametrize(
        "field,value",
        [("scale", True), ("scale", 1.7), ("seed", 1.7), ("seed", False),
         ("seed", "7"), ("scale", None)],
    )
    def test_design_request_refuses_non_integer_counts(self, field, value):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_design_request({"app": "klt", field: value})
        assert err.value.status == 400
        assert field in str(err.value)

    def test_design_request_accepts_integral_floats(self):
        job = protocol.parse_design_request(
            {"app": "klt", "scale": 2.0, "seed": 7.0}
        )
        assert (job.scale, job.seed) == (2, 7)
        assert type(job.scale) is int and type(job.seed) is int

    def test_design_request_refuses_negative_seed(self):
        # Not a ProtocolError, but the library's own ConfigurationError,
        # which the server answers with a 400 as well.
        with pytest.raises(ConfigurationError, match="seed"):
            protocol.parse_design_request({"app": "fluid", "seed": -1})

    @pytest.mark.parametrize(
        "doc",
        [{"scales": [1, True]}, {"scales": [1.5]}, {"seed": 2.5},
         {"seed": True}],
    )
    def test_sweep_request_refuses_non_integer_counts(self, doc):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_sweep_request({"apps": ["canny"], **doc})
        assert err.value.status == 400

    def test_sweep_request_builds_grid(self):
        grid = protocol.parse_sweep_request({
            "apps": ["canny", "jpeg"], "scales": [1, 2],
            "param_grid": {"bus_width_bytes": [4, 8]},
        })
        assert grid.size() == 2 * 2 * 2

    def test_sweep_request_caps_grid_size(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_sweep_request(
                {"apps": ["canny"], "scales": [1, 2]}, max_points=1
            )
        assert err.value.status == 413

    def test_decode_body_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_body(b"[1, 2]")
        with pytest.raises(ProtocolError):
            protocol.decode_body(b"not json")

    def test_encode_is_canonical(self):
        doc = {"b": 1, "a": {"z": 0.1, "y": [1, 2]}}
        assert protocol.encode(doc) == canonical_json(doc).encode()

    def test_error_body_carries_retry_hint(self):
        doc = protocol.error_body(429, "slow down", retry_after_s=3.0)
        assert doc["status"] == 429
        assert doc["retry_after_s"] == 3.0
        assert "retry_after_s" not in protocol.error_body(400, "bad")


class TestSanitizeTenant:
    def test_passthrough(self):
        assert sanitize_tenant("team-a") == "team-a"

    def test_strips_control_characters(self):
        assert sanitize_tenant("evil\r\nSet-Cookie: x") == (
            "evilSet-Cookie: x"
        )
        assert sanitize_tenant("a\x00b\x1fc") == "abc"

    def test_empty_falls_back_to_default(self):
        assert sanitize_tenant("") == DEFAULT_TENANT
        assert sanitize_tenant("  \r\n ") == DEFAULT_TENANT

    def test_truncates(self):
        assert sanitize_tenant("x" * 500) == "x" * MAX_TENANT_CHARS

    def test_injection_cannot_forge_prometheus_series(self):
        """A hostile tenant id must not break exposition parsing.

        The two layers under test: ``sanitize_tenant`` drops newlines
        (no new exposition lines), and ``metric_key`` escapes quotes
        and backslashes (no label-value breakout). The forged sample
        must appear only as an escaped *value*, never as its own line.
        """
        hostile = 'a"} 1\nforged_metric{x="y'
        tenant = sanitize_tenant(hostile)
        assert "\n" not in tenant

        registry = MetricsRegistry()
        registry.incr("quota_rejections", labels={"tenant": tenant})
        text = to_prometheus(registry.snapshot())
        forged = [
            line for line in text.splitlines()
            if line.startswith("forged_metric")
        ]
        assert forged == [], text
        # The real series is present, with the payload safely quoted.
        assert 'quota_rejections{tenant="' in text
        key = metric_key("quota_rejections", {"tenant": tenant})
        assert '\\"' in key  # quote escaped, not terminating the value


class TestQuota:
    def test_burst_then_refusal(self):
        now = [0.0]
        quota = QuotaManager(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert quota.allow("t") == (True, 0.0)
        assert quota.allow("t") == (True, 0.0)
        ok, retry = quota.allow("t")
        assert not ok
        assert retry == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        now = [0.0]
        quota = QuotaManager(rate=2.0, burst=1.0, clock=lambda: now[0])
        assert quota.allow("t")[0]
        assert not quota.allow("t")[0]
        now[0] = 0.5  # 2 tokens/s * 0.5s = 1 token back
        assert quota.allow("t")[0]

    def test_tenants_are_isolated(self):
        now = [0.0]
        quota = QuotaManager(rate=0.0, burst=1.0, clock=lambda: now[0])
        assert quota.allow("a")[0]
        assert not quota.allow("a")[0]
        assert quota.allow("b")[0]  # b has its own bucket
        assert quota.tenants() == ("a", "b")

    def test_zero_rate_never_refills(self):
        now = [0.0]
        quota = QuotaManager(rate=0.0, burst=1.0, clock=lambda: now[0])
        assert quota.allow("t")[0]
        now[0] = 1e9
        ok, retry = quota.allow("t")
        assert not ok and math.isinf(retry)

    def test_burst_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            QuotaManager(rate=1.0, burst=0.5)

    def test_remaining(self):
        now = [0.0]
        quota = QuotaManager(rate=1.0, burst=3.0, clock=lambda: now[0])
        assert quota.remaining("t") == 3.0
        quota.allow("t")
        assert quota.remaining("t") == pytest.approx(2.0)


class TestAdmission:
    def test_capacity_bound(self):
        adm = AdmissionController(max_inflight=2, max_queue=1)
        assert adm.try_acquire()[0]
        assert adm.try_acquire()[0]
        assert adm.try_acquire()[0]  # queue slot
        ok, retry = adm.try_acquire()
        assert not ok and retry >= 1.0
        assert adm.rejected == 1

    def test_release_frees_slot(self):
        adm = AdmissionController(max_inflight=1, max_queue=0)
        assert adm.try_acquire()[0]
        assert not adm.try_acquire()[0]
        adm.release(0.01)
        assert adm.try_acquire()[0]

    def test_retry_after_tracks_latency_ewma(self):
        adm = AdmissionController(
            max_inflight=1, max_queue=4, initial_latency_s=0.05
        )
        for _ in range(5):
            adm.try_acquire()
        adm.release(10.0)  # one slow request drags the EWMA up
        assert adm.latency_ewma_s > 2.0
        assert adm.retry_after_s() >= math.ceil(adm.latency_ewma_s * 3)

    def test_negative_duration_skips_ewma(self):
        adm = AdmissionController(initial_latency_s=0.05)
        adm.try_acquire()
        adm.release(-1.0)
        assert adm.latency_ewma_s == 0.05

    def test_drain(self):
        adm = AdmissionController(max_inflight=2, max_queue=2)
        adm.try_acquire()
        adm.start_drain()
        assert not adm.try_acquire()[0]
        assert not adm.drained()
        adm.release(0.01)
        assert adm.drained()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_queue=-1)


class TestSseParsing:
    def test_events_roundtrip(self):
        lines = [
            ": keep-alive\n",
            "event: point\n",
            'data: {"a": 1}\n',
            "\n",
            "event: done\n",
            'data: {"count": 1}\n',
            "\n",
        ]
        events = list(parse_sse_stream(lines))
        assert events == [
            ("point", '{"a": 1}'), ("done", '{"count": 1}')
        ]


@pytest.fixture(scope="module")
def server():
    """One shared server on an ephemeral port for the e2e tests."""
    config = ServerConfig(
        port=0, quota_rate=10_000.0, quota_burst=10_000.0,
        max_inflight=16, max_queue=64,
    )
    handle = start_in_thread(config)
    yield handle
    assert handle.stop() is True


class TestEndToEnd:
    def test_health_probes(self, server):
        client = DesignClient(server.url)
        assert client.healthz()
        assert client.readyz()

    def test_design_byte_identical_to_in_process(self, server):
        client = DesignClient(server.url, tenant="pytest")
        for app in ("canny", "jpeg", "klt", "fluid"):
            doc = client.design(app)
            assert doc["kind"] == "design-response"
            served = canonical_json(doc["summary"]).encode()
            local = canonical_json(
                result_summary(run_experiment(app))
            ).encode()
            assert served == local, app

    def test_design_rejects_unknown_app(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client.design("netflix")
        assert err.value.status == 400

    def test_negative_seed_is_one_400_and_never_runs(self, server):
        """A deterministic input error is refused on the first request;
        no job is submitted, so nothing is retried into a 500."""
        metrics = server.server.service.metrics
        before = (metrics.counter("jobs_submitted"),
                  metrics.counter("jobs_failed"))
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client.design("fluid", seed=-1)
        assert err.value.status == 400
        assert "seed" in str(err.value)
        assert "attempts" not in str(err.value)
        assert (metrics.counter("jobs_submitted"),
                metrics.counter("jobs_failed")) == before

    @pytest.mark.parametrize("body", [{"seed": 1.7}, {"scale": True}])
    def test_non_integer_counts_are_400(self, server, body):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/design", {"app": "fluid", **body})
        assert err.value.status == 400

    def test_design_static_graph_source(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.design("canny", simulate=False, graph_source="static")
        local = result_summary(
            run_experiment("canny", simulate=False, graph_source="static")
        )
        assert canonical_json(doc["summary"]) == canonical_json(local)
        traced = client.design("canny", simulate=False)
        # Separate fingerprints (separate cache entries), same result on
        # a deterministic app.
        assert doc["fingerprint"] != traced["fingerprint"]
        assert doc["summary"] == traced["summary"]

    def test_design_rejects_unknown_graph_source(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client.design("canny", graph_source="psychic")
        assert err.value.status == 400

    def test_job_lookup_after_design(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.design("klt")
        job = client.job(doc["fingerprint"])
        assert job is not None
        assert job["fingerprint"] == doc["fingerprint"]
        assert job["summary"] == doc["summary"]

    def test_job_lookup_unknown_is_none(self, server):
        client = DesignClient(server.url)
        assert client.job("0" * 64) is None

    def test_sweep_matches_designs(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.sweep(["canny", "jpeg"], scales=[1])
        assert doc["count"] == 2
        apps = sorted(p["app"] for p in doc["points"])
        assert apps == ["canny", "jpeg"]

    def test_sweep_stream_is_incremental(self, server):
        client = DesignClient(server.url, tenant="pytest")
        events = list(client.sweep_stream(["klt", "fluid"], scales=[1]))
        names = [name for name, _ in events]
        assert names == ["point", "point", "done"]
        done = events[-1][1]
        assert done["count"] == 2
        point_doc = events[0][1]
        assert point_doc["app"] in ("klt", "fluid")

    def test_second_design_is_cache_hit(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        doc = client.design("canny")
        assert doc["cached"] is True

    def test_metrics_exposition(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        text = client.metrics()
        assert "# TYPE repro_http_requests counter" in text
        assert 'route="/v1/design"' in text
        assert "repro_cache_hits" in text
        assert "inflight_requests" in text

    def test_unknown_route_404(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v1/design")
        assert err.value.status == 405

    def test_malformed_json_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            client_host(server), client_port(server), timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/design", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["kind"] == "error-response"
        finally:
            conn.close()


def client_host(server) -> str:
    return DesignClient(server.url).host


def client_port(server) -> int:
    return DesignClient(server.url).port


class TestRequestTelemetry:
    def test_envelope_echoes_client_trace_id(self, server):
        client = DesignClient(server.url, tenant="pytest")
        doc = client.design("canny")
        assert doc["trace_id"] == client.last_trace_id
        assert len(doc["trace_id"]) == 32
        # a new request mints a new trace
        doc2 = client.design("jpeg")
        assert doc2["trace_id"] == client.last_trace_id
        assert doc2["trace_id"] != doc["trace_id"]

    def test_explicit_traceparent_header_is_adopted(self, server):
        import http.client

        trace_id = "ab" * 16
        conn = http.client.HTTPConnection(
            client_host(server), client_port(server), timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/design", body=json.dumps({"app": "canny"}),
                headers={"traceparent": f"00-{trace_id}-{'cd' * 8}-01"},
            )
            doc = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert doc["trace_id"] == trace_id

    def test_malformed_traceparent_gets_fresh_trace_not_an_error(
        self, server
    ):
        import http.client

        conn = http.client.HTTPConnection(
            client_host(server), client_port(server), timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/design", body=json.dumps({"app": "canny"}),
                headers={"traceparent": "not-a-traceparent"},
            )
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 200
        assert len(doc["trace_id"]) == 32

    def test_error_body_carries_trace_id(self, server):
        client = DesignClient(server.url)
        with pytest.raises(ServerError):
            client.design("netflix")
        # the trace the client minted is the one the 400 came back on
        assert len(client.last_trace_id) == 32

    def test_sweep_stream_done_event_carries_trace_id(self, server):
        client = DesignClient(server.url, tenant="pytest")
        events = list(client.sweep_stream(["klt"], scales=[1]))
        assert events[-1][0] == "done"
        assert events[-1][1]["trace_id"] == client.last_trace_id

    def test_sweep_stream_points_carry_trace_id(self, server):
        """Every SSE ``point`` event echoes the request's trace id, so a
        consumer can correlate a partial stream with server telemetry
        even when the ``done`` event never arrives."""
        client = DesignClient(server.url, tenant="pytest")
        events = list(
            client.sweep_stream(["canny", "jpeg"], scales=[1])
        )
        points = [doc for name, doc in events if name == "point"]
        assert len(points) == 2
        for doc in points:
            assert doc["trace_id"] == client.last_trace_id
        # the non-stream path stays untouched: no trace_id per point
        batch = client.sweep(["canny", "jpeg"], scales=[1])
        assert all("trace_id" not in p for p in batch["points"])
        # and points are otherwise identical between the two paths
        strip = [
            {k: v for k, v in p.items() if k != "trace_id"}
            for p in points
        ]
        key = canonical_json
        assert sorted(map(key, strip)) == sorted(
            map(key, batch["points"])
        )

    def test_debug_endpoint_sections(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        doc = client.debug()
        assert doc["kind"] == "debug-response"
        assert doc["trace_id"] == client.last_trace_id
        debug = doc["debug"]
        for section in ("uptime_s", "inflight_requests", "admission",
                        "executor", "tenants", "cache", "service",
                        "events"):
            assert section in debug, section
        assert debug["uptime_s"] > 0
        assert debug["admission"]["max_inflight"] == 16
        # the debug request runs no executor call of its own
        assert debug["executor"] == {"inflight": 0, "oldest_age_s": 0.0}
        assert debug["service"]["last_mode"] in ("serial", "pool")
        # the debug request itself is in the in-flight table
        routes = [r["route"] for r in debug["inflight_requests"]]
        assert "/v1/debug" in routes
        counts = debug["events"]["counts"]
        assert counts.get("request_start", 0) > 0
        recent = debug["events"]["recent"]
        assert recent and all("kind" in e for e in recent)

    def test_metrics_carry_event_counts_and_exemplars(self, server):
        client = DesignClient(server.url, tenant="pytest")
        client.design("canny")
        text = client.metrics()
        assert 'runtime_events{kind="request_finish"}' in text
        lines = [
            l for l in text.splitlines()
            if l.startswith("repro_http_request_last_seconds{")
        ]
        assert any('route="/v1/design"' in l for l in lines), text
        # the exemplar label is a full 32-hex trace id
        label = next(l for l in lines if 'route="/v1/design"' in l)
        trace = label.split('trace_id="')[1].split('"')[0]
        assert len(trace) == 32

    def test_event_log_records_rejections(self):
        config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="stingy")
            client.design("canny")
            with pytest.raises(ServerError):
                client.design("jpeg")
            doc = client.debug()
            counts = doc["debug"]["events"]["counts"]
            assert counts.get("quota_reject", 0) == 1
            kinds = [e["kind"] for e in doc["debug"]["events"]["recent"]]
            assert "quota_reject" in kinds
        assert handle.stop() is True

    def test_event_log_sink_written_on_drain(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        config = ServerConfig(port=0, event_log_path=str(sink))
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="pytest")
            client.design("canny")
        assert handle.stop() is True
        docs = [json.loads(l) for l in sink.read_text().splitlines()]
        kinds = [d["kind"] for d in docs]
        assert "request_start" in kinds
        assert "request_finish" in kinds
        assert "drain_begin" in kinds
        assert kinds[-1] == "drain_done"
        finish = next(d for d in docs if d["kind"] == "request_finish"
                      and d["fields"].get("route") == "/v1/design")
        assert finish["trace_id"]
        assert finish["fields"]["status"] == 200


def _read_request(conn) -> None:
    """Consume one whole HTTP request (head and Content-Length body).

    Closing a socket with unread request bytes makes the kernel send RST
    instead of FIN, so a fake server must drain the request before it
    replies — otherwise every close is an accidental reset.
    """
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return
        body += chunk


def _serve_once(response: bytes, close: str, call):
    """Serve ``response`` once, cut the connection, return what ``call`` returned.

    ``close`` is ``"fin"`` (orderly close) or ``"rst"`` (SO_LINGER 0
    abort). ``call`` gets the fake server's base URL; whatever it
    raises propagates.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve_once():
        conn, _ = listener.accept()
        _read_request(conn)
        conn.sendall(response)
        if close == "rst":
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        conn.close()

    thread = threading.Thread(target=serve_once, daemon=True)
    thread.start()
    try:
        return call(f"http://127.0.0.1:{port}")
    finally:
        thread.join(timeout=5)
        assert not thread.is_alive()
        listener.close()


def _cut_connection_after(response: bytes, close: str, call) -> ServerError:
    """Serve ``response`` once, cut the connection, return what ``call`` raised.

    ``call`` must raise a typed ``ServerError`` — never a raw socket
    error.
    """
    with pytest.raises(ServerError) as err:
        _serve_once(response, close, call)
    return err.value


def _record_response(url: str, path: str, body: dict) -> bytes:
    """The raw bytes a live server answers one ``POST`` with."""
    host, _, port = url.removeprefix("http://").partition(":")
    payload = json.dumps(body).encode("utf-8")
    with socket.create_connection((host, int(port)), timeout=60) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode("ascii")
            + payload
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestTruncatedStream:
    @pytest.mark.parametrize("close", ["fin", "rst"])
    def test_stream_ending_without_done_raises(self, close):
        """A dropped connection mid-stream must not look like success."""
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b"event: point\r\n"
            b'data: {"app": "klt"}\r\n'
            b"\r\n"
        )  # one point, then the server "dies" — no done event
        err = _cut_connection_after(
            response, close,
            lambda url: list(DesignClient(url).sweep_stream(["klt"])),
        )
        assert err.status == 0
        assert "truncated" in str(err)

    @pytest.mark.parametrize("close", ["fin", "rst"])
    def test_request_cut_mid_response_raises_typed(self, close):
        """A design response cut inside its body is a typed ServerError."""
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 1000\r\n"
            b"\r\n"
            b'{"app": '
        )
        err = _cut_connection_after(
            response, close, lambda url: DesignClient(url).design("klt")
        )
        assert err.status == 0
        assert "truncated" in str(err)

    @pytest.mark.parametrize(
        "body", [b'{"kind": "design-resp', b""], ids=["cut-json", "empty"]
    )
    def test_bad_json_2xx_body_raises_protocol_error(self, body):
        """A 2xx body that is not JSON is an error, not an empty doc."""
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        err = _cut_connection_after(
            response, "fin", lambda url: DesignClient(url).design("klt")
        )
        assert isinstance(err, ProtocolError)
        assert err.status == 200
        assert "not valid JSON" in str(err)

    def test_malformed_stream_event_raises_protocol_error(self):
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b"event: point\r\n"
            b'data: {"app": "kl\r\n'
            b"\r\n"
            b"event: done\r\n"
            b'data: {"count": 1}\r\n'
            b"\r\n"
        )
        err = _cut_connection_after(
            response, "fin",
            lambda url: list(DesignClient(url).sweep_stream(["klt"])),
        )
        assert isinstance(err, ProtocolError)
        assert err.status == 200
        assert "'point'" in str(err)

    def test_complete_stream_does_not_raise(self, server):
        client = DesignClient(server.url, tenant="pytest")
        events = list(client.sweep_stream(["canny"], scales=[1]))
        assert [name for name, _ in events][-1] == "done"


class TestDesignCutAtEveryOffset:
    """A recorded ``/v1/design`` response, replayed and cut at every byte.

    Each cut is served once with FIN and once with RST, one offset at a
    time. Only the whole response may return a result; every shorter
    one must raise ``ServerError(status=0)`` or ``ProtocolError``, never
    a raw ``OSError``, ``http.client`` exception or ``ValueError``.
    """

    @pytest.fixture(scope="class")
    def recorded(self, server):
        raw = _record_response(server.url, "/v1/design", {
            "app": "klt", "scale": 1, "seed": 2014, "simulate": False,
        })
        assert raw.startswith(b"HTTP/1.1 200 ")
        return raw

    @pytest.mark.parametrize("close", ["fin", "rst"])
    def test_only_the_whole_response_returns(self, recorded, close):
        def design(url):
            return DesignClient(url).design("klt", simulate=False)

        served = json.loads(recorded.partition(b"\r\n\r\n")[2])
        assert served["kind"] == "design-response"
        assert _serve_once(recorded, close, design) == served
        for cut in range(len(recorded)):
            where = f"cut at byte {cut} of {len(recorded)} ({close})"
            try:
                got = _serve_once(recorded[:cut], close, design)
            except ProtocolError:
                continue
            except ServerError as exc:
                assert exc.status == 0, where
                continue
            except Exception as exc:
                pytest.fail(f"{where} raised raw {type(exc).__name__}: {exc}")
            pytest.fail(f"{where} returned {got!r}")


class TestQuotaOverHttp:
    def test_429_with_retry_after_and_metric_label(self):
        config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="stingy")
            client.design("canny")
            with pytest.raises(ServerError) as err:
                client.design("jpeg")
            assert err.value.status == 429
            assert err.value.retry_after > 0
            text = client.metrics()
            assert 'repro_quota_rejections{tenant="stingy"} 1' in text
        assert handle.stop() is True

    def test_tenants_have_independent_buckets(self):
        config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
        with start_in_thread(config) as handle:
            DesignClient(handle.url, tenant="a").design("canny")
            # tenant b still has its full (tiny) burst available
            doc = DesignClient(handle.url, tenant="b").design("canny")
            assert doc["cached"] is True  # same fingerprint, shared cache
        assert handle.stop() is True

    def test_hostile_tenant_header_cannot_forge_metrics(self):
        """Quote-breakout via X-Tenant stays inside the label value.

        (``http.client`` refuses to send raw newlines in a header, so
        the newline-stripping layer is covered by the
        ``sanitize_tenant`` unit tests; this exercises the
        quote/backslash escaping end to end.)
        """
        config = ServerConfig(port=0)
        with start_in_thread(config) as handle:
            hostile = 'x"} 1 forged_http_metric{t="y'
            client = DesignClient(handle.url, tenant=hostile)
            client.design("canny")
            text = client.metrics()
            assert not any(
                line.startswith("forged_http_metric")
                for line in text.splitlines()
            ), text
            # the payload survives only as an escaped label value
            assert 'tenant="x\\"} 1 forged_http_metric{t=\\"y"' in text
        assert handle.stop() is True


class TestDrain:
    def test_stop_reports_clean_drain_and_rejects_new_work(self):
        config = ServerConfig(port=0)
        handle = start_in_thread(config)
        client = DesignClient(handle.url)
        client.design("canny")
        assert handle.stop() is True
        # the socket is gone afterwards
        assert not client.healthz()


class TestZeroRateQuota:
    def test_spent_fixed_budget_answers_429_without_retry_after(self):
        """Regression: a zero-rate bucket reported ``math.inf`` seconds
        to wait, and ``int(inf)`` dropped the connection."""
        import http.client

        config = ServerConfig(port=0, quota_rate=0, quota_burst=1.0)
        with start_in_thread(config) as handle:
            client = DesignClient(handle.url, tenant="fixed")
            client.design("canny", simulate=False)
            with pytest.raises(ServerError) as err:
                client.design("canny", simulate=False)
            assert err.value.status == 429
            conn = http.client.HTTPConnection(
                client_host(handle), client_port(handle), timeout=30
            )
            try:
                conn.request("POST", "/v1/design", body=b'{"app": "canny"}',
                             headers={"X-Tenant": "fixed"})
                resp = conn.getresponse()
                body = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 429
            assert resp.getheader("Retry-After") is None
            assert "retry_after_s" not in body
        assert handle.stop() is True

    def test_negative_quota_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(quota_rate=-1.0)


def _eventually(check, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not check():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestUnexpectedError:
    def test_handler_crash_answers_500_with_trace_id(self, monkeypatch):
        """Regression: only ReproError subclasses were answered; anything
        else dropped the connection."""
        import http.client

        from repro.server.app import DesignServer

        async def crash(self, request, tenant, ctx):
            raise RuntimeError("planted")

        monkeypatch.setattr(DesignServer, "_design", crash)
        trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
        with start_in_thread(ServerConfig(port=0)) as handle:
            conn = http.client.HTTPConnection(
                client_host(handle), client_port(handle), timeout=30
            )
            try:
                conn.request("POST", "/v1/design", body=b'{"app": "canny"}',
                             headers={"X-Tenant": "pytest", "traceparent":
                                      f"00-{trace_id}-00f067aa0ba902b7-01"})
                resp = conn.getresponse()
                body = json.loads(resp.read())
            finally:
                conn.close()
            assert resp.status == 500
            assert body["kind"] == "error-response"
            assert body["trace_id"] == trace_id
            server = handle.server

            def finished():
                return [
                    e.fields for e in server.events.events()
                    if e.kind == "request_finish" and e.trace_id == trace_id
                ]

            # the response is written before the request's books close
            _eventually(finished)
            (fields,) = finished()
            assert fields["status"] == 500
            assert fields["error"].startswith("RuntimeError: planted at ")
            assert fields["error"].endswith(" in crash")
            assert server.registry.counter("http_requests", labels={
                "route": "/v1/design", "status": 500, "tenant": "pytest",
            }) == 1
            assert DesignClient(handle.url).healthz()
        assert handle.stop() is True


def _traced_server(**config):
    """A server whose service records into the server's own tracer."""
    from repro.obs.trace import Tracer
    from repro.service import DesignService

    tracer = Tracer()
    service = DesignService(tracer=tracer, **config)
    handle = start_in_thread(ServerConfig(port=0), service=service,
                             tracer=tracer)
    return handle, service, tracer


class TestDirectSubmission:
    """Hits are answered on the event loop; misses go straight to
    ``submit_many`` on an executor thread, with no batching window."""

    def test_warm_hits_never_reach_submit_many(self):
        handle, service, tracer = _traced_server()
        n = 5
        try:
            client = DesignClient(handle.url, tenant="pytest")
            primed = client.design("canny", simulate=False)
            mark = len(tracer.events)
            before = service.cache.stats.as_dict()
            docs = [client.design("canny", simulate=False) for _ in range(n)]
            after = service.cache.stats.as_dict()
            spans = tracer.events[mark:]
        finally:
            assert handle.stop() is True
            service.close()
        assert all(d["cached"] for d in docs)
        assert all(d["summary"] == primed["summary"] for d in docs)
        assert after["hits_memory"] == before["hits_memory"] + n
        assert after["misses"] == before["misses"]
        names = [s.name for s in spans]
        assert "submit_many" not in names
        http = [s for s in spans if s.name == "http_request"
                and s.args.get("route") == "/v1/design"]
        lookups = [s for s in spans if s.name == "cache_lookup"]
        assert len(http) == n and len(lookups) == n
        for h in http:
            assert any(
                h.start_us <= s.start_us
                and s.start_us + s.duration_us <= h.start_us + h.duration_us
                and s.tid == h.tid and s.category == "service"
                for s in lookups
            )
        assert names.count("cache_hit") == n

    def test_concurrent_identical_cold_requests_compute_once(self):
        from repro.service import DesignService

        k = 4
        release = threading.Event()

        def slow_runner(job):
            release.wait(timeout=30)
            return {"app": job.app, "scale": job.scale, "value": 42}

        service = DesignService(runner=slow_runner)
        handle = start_in_thread(ServerConfig(port=0), service=service)
        docs = [None] * k
        try:
            url = handle.url

            def post(i):
                docs[i] = DesignClient(url, tenant="pytest").design(
                    "klt", simulate=False
                )

            threads = [threading.Thread(target=post, args=(i,))
                       for i in range(k)]
            for t in threads:
                t.start()
            # hold the owner's computation until every twin has joined it
            _eventually(
                lambda: service.metrics.counter("jobs_joined") == k - 1
            )
            release.set()
            for t in threads:
                t.join(timeout=30)
        finally:
            release.set()
            assert handle.stop() is True
            service.close()
        assert service.metrics.counter("jobs_completed") == 1
        assert service.metrics.counter("jobs_joined") == k - 1
        assert all(d is not None for d in docs)
        assert len({canonical_json(d["summary"]) for d in docs}) == 1
        assert sum(not d["coalesced"] for d in docs) == 1

    def test_disk_hit_is_served_through_the_executor(self, tmp_path):
        first = start_in_thread(ServerConfig(port=0, cache_dir=str(tmp_path)))
        try:
            doc = DesignClient(first.url).design("jpeg", simulate=False)
        finally:
            assert first.stop() is True
        handle, service, tracer = _traced_server(cache_dir=tmp_path)
        try:
            again = DesignClient(handle.url).design("jpeg", simulate=False)
            stats = service.cache.stats.as_dict()
            spans = list(tracer.events)
        finally:
            assert handle.stop() is True
            service.close()
        assert again["cached"] is True
        assert again["summary"] == doc["summary"]
        assert stats["hits_disk"] == 1
        assert stats["hits_memory"] == 0 and stats["misses"] == 0
        (http,) = [s for s in spans if s.name == "http_request"]
        (submit,) = [s for s in spans if s.name == "submit_many"]
        assert submit.args["distinct"] == 0
        assert submit.tid != http.tid  # not on the event loop

    def test_streamed_sweep_over_cached_grid_is_all_hits(self):
        handle, service, tracer = _traced_server()
        try:
            client = DesignClient(handle.url, tenant="pytest")
            client.sweep(["canny", "klt"], scales=[1, 2])
            mark = len(tracer.events)
            before = service.cache.stats.as_dict()
            completed = service.metrics.counter("jobs_completed")
            events = list(client.sweep_stream(["canny", "klt"],
                                              scales=[1, 2]))
            after = service.cache.stats.as_dict()
            spans = tracer.events[mark:]
        finally:
            assert handle.stop() is True
            service.close()
        points = [doc for name, doc in events if name == "point"]
        assert len(points) == 4
        assert after["hits_memory"] == before["hits_memory"] + 4
        assert after["misses"] == before["misses"]
        assert service.metrics.counter("jobs_completed") == completed
        assert "submit_many" not in {s.name for s in spans}
        hits = [s for s in spans if s.name == "cache_hit"]
        assert len(hits) == 4

    def test_job_lookup_reads_disk_without_side_effects(self, tmp_path):
        from repro.service import DesignService

        service = DesignService(cache_dir=tmp_path)
        handle = start_in_thread(ServerConfig(port=0), service=service)
        try:
            client = DesignClient(handle.url)
            doc = client.design("fluid", simulate=False)
            fp = doc["fingerprint"]
            service.cache.clear_memory()
            assert service.cache.peek(fp, disk=False) is None
            before = service.cache.stats.as_dict()
            job = client.job(fp)
            assert client.job("0" * 64) is None
            assert service.cache.stats.as_dict() == before
            assert len(service.cache) == 0  # the disk read promoted nothing
        finally:
            assert handle.stop() is True
            service.close()
        assert job is not None and job["summary"] == doc["summary"]


class TestExecutorWatchdog:
    def test_hung_executor_call_trips_probe_and_shows_in_debug(
        self, tmp_path
    ):
        from repro.service import DesignService

        release = threading.Event()

        def hung_runner(job):
            release.wait(timeout=30)
            return {"app": job.app}

        service = DesignService(runner=hung_runner)
        config = ServerConfig(
            port=0, flight_dir=str(tmp_path),
            watchdog_interval_s=0.05, watchdog_job_stall_s=0.2,
        )
        handle = start_in_thread(config, service=service)
        try:
            client = DesignClient(handle.url)
            worker = threading.Thread(
                target=lambda: client.design("canny", simulate=False)
            )
            worker.start()
            probe = DesignClient(handle.url)
            _eventually(lambda: not probe.readyz())
            debug = probe.debug()["debug"]
            assert debug["executor"]["inflight"] == 1
            assert debug["executor"]["oldest_age_s"] > 0.2
            assert "executor" in debug["flight"]["stalled"]
            (dump,) = tmp_path.glob("flight-*.json")
            state = json.loads(dump.read_text())["state"]
            assert state["executor"]["inflight"] == 1
            release.set()
            worker.join(timeout=30)
            _eventually(probe.readyz)
            assert probe.debug()["debug"]["executor"]["inflight"] == 0
        finally:
            release.set()
            assert handle.stop() is True
            service.close()
