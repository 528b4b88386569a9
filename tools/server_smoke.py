#!/usr/bin/env python
"""CI smoke driver for the networked design service.

Drives an already-running ``repro serve`` instance (``--url``) through
every externally-observable behaviour the server promises:

1. ``/healthz`` and ``/readyz`` respond 200;
2. ``POST /v1/design`` for all four applications returns summaries that
   are **byte-identical** (under ``canonical_json``) to an in-process
   ``run_experiment`` — the server is a transport, not a re-derivation;
3. ``GET /v1/jobs/<fingerprint>`` returns the cached summary for a
   known fingerprint and 404 for an unknown one;
4. ``POST /v1/sweep`` returns one record per grid point;
5. ``POST /v1/sweep/stream`` delivers one SSE ``point`` event per grid
   point followed by a ``done`` event whose count matches;
6. ``GET /metrics`` exposes the expected Prometheus families;
7. ``GET /v1/debug`` returns the runtime introspection document with
   every promised section, and ``render_top`` can draw it;
8. trace propagation: a dedicated traced in-process server proves that
   one request produces ``client_request`` → ``http_request`` → ``job``
   spans all carrying the same W3C trace id, which is also echoed in
   the response envelope; ``--trace-out`` writes the merged spans as a
   chrome://tracing-loadable artifact;
9. the quota path: a *separate* in-process server with a near-zero
   per-tenant rate answers the second request with 429 and a
   ``Retry-After`` hint, and the rejection is visible (with the tenant
   label intact) in its ``/metrics``.

Exit code 0 means every check passed. Any assertion failure or
transport error is fatal — this script is a CI gate, not a report.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import List, Optional, Sequence

from repro.errors import ServerError
from repro.flow import result_summary, run_experiment
from repro.io import canonical_json
from repro.obs.runtime.debug import render_top
from repro.obs.trace import Tracer
from repro.server import DesignClient, ServerConfig, start_in_thread
from repro.service import DesignService

APPS = ("canny", "jpeg", "klt", "fluid")


def wait_ready(client: DesignClient, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.readyz():
            return
        time.sleep(0.2)
    raise SystemExit(f"server at {client.base_url} never became ready")


def check_design_identity(client: DesignClient) -> List[str]:
    """Byte-identical served vs in-process summaries; fingerprints."""
    fingerprints = []
    for app in APPS:
        doc = client.design(app)
        assert doc["kind"] == "design-response", doc
        assert doc["app"] == app, doc
        assert doc["trace_id"] == client.last_trace_id, (
            f"{app}: envelope trace id {doc['trace_id']!r} != the id "
            f"the client sent ({client.last_trace_id!r})"
        )
        served = canonical_json(doc["summary"]).encode("utf-8")
        local = canonical_json(
            result_summary(run_experiment(app))
        ).encode("utf-8")
        assert served == local, (
            f"{app}: served summary differs from in-process pipeline"
        )
        fingerprints.append(doc["fingerprint"])
        print(f"  design {app}: byte-identical "
              f"({doc['fingerprint'][:12]}…, cached={doc['cached']})")
    return fingerprints


def check_jobs(client: DesignClient, fingerprint: str) -> None:
    doc = client.job(fingerprint)
    assert doc is not None and doc["kind"] == "job-response", doc
    assert doc["fingerprint"] == fingerprint and doc["summary"], doc
    assert client.job("0" * 64) is None
    print("  jobs: cached fingerprint found, unknown is 404")


def check_sweep(client: DesignClient) -> None:
    doc = client.sweep(list(APPS), scales=[1])
    assert doc["kind"] == "sweep-response", doc
    assert doc["count"] == len(APPS), doc
    assert len(doc["points"]) == len(APPS), doc
    print(f"  sweep: {doc['count']} points returned")


def check_stream(client: DesignClient) -> None:
    events = list(client.sweep_stream(list(APPS), scales=[1]))
    names = [name for name, _ in events]
    assert names == ["point"] * len(APPS) + ["done"], names
    done = events[-1][1]
    assert done["count"] == len(APPS), done
    print(f"  stream: {len(APPS)} point events then done")


def check_metrics(client: DesignClient) -> None:
    text = client.metrics()
    for family in ("repro_http_requests", "repro_cache_hits",
                   "repro_inflight_requests"):
        assert family in text, f"{family} missing from /metrics"
    print("  metrics: expected Prometheus families present")


def check_debug(client: DesignClient) -> None:
    doc = client.debug()
    assert doc["kind"] == "debug-response", doc
    assert doc["trace_id"] == client.last_trace_id, doc
    debug = doc["debug"]
    for section in ("uptime_s", "inflight_requests", "admission",
                    "executor", "tenants", "cache", "service", "events"):
        assert section in debug, f"{section} missing from /v1/debug"
    counts = debug["events"]["counts"]
    assert counts.get("request_start", 0) > 0, counts
    # The dashboard must be able to draw whatever the endpoint serves.
    screen = render_top(doc, metrics_text=client.metrics())
    assert "repro top" in screen and "inflight" in screen, screen
    print(f"  debug: all sections present, "
          f"{sum(counts.values())} events logged, top renders")


def check_trace_propagation(trace_out: Optional[str]) -> None:
    """One request must yield a connected client→server→worker trace."""
    tracer = Tracer()  # shared by the server and its service
    service = DesignService(jobs=1, tracer=tracer)
    config = ServerConfig(port=0)
    try:
        with start_in_thread(config, service=service,
                             tracer=tracer) as handle:
            client_tracer = Tracer()
            client = DesignClient(handle.url, tenant="ci-trace",
                                  tracer=client_tracer)
            doc = client.design("canny")
            trace_id = client.last_trace_id
            assert doc["trace_id"] == trace_id, doc
    finally:
        service.close()
    spans = [e.as_dict() for e in client_tracer.events + tracer.events]
    by_name = {
        s["name"]: s for s in spans
        if s.get("args", {}).get("trace_id") == trace_id
    }
    for name in ("client_request", "http_request", "job"):
        assert name in by_name, (
            f"span {name!r} with trace id {trace_id} missing; "
            f"got {sorted(s['name'] for s in spans)}"
        )
    if trace_out is not None:
        merged = {
            "traceEvents": [
                e.to_chrome()
                for e in (*client_tracer.events, *tracer.events)
            ],
            "displayTimeUnit": "ms",
        }
        path = pathlib.Path(trace_out)
        path.write_text(json.dumps(merged) + "\n")
        print(f"  trace: wrote {len(merged['traceEvents'])} merged "
              f"spans to {path}")
    print(f"  trace: client_request/http_request/job spans share "
          f"trace id {trace_id[:16]}…")


def check_quota_429() -> None:
    """A dedicated stingy in-process server must 429 the second hit."""
    config = ServerConfig(port=0, quota_rate=0.001, quota_burst=1.0)
    with start_in_thread(config) as handle:
        client = DesignClient(handle.url, tenant="ci-stingy")
        client.design("canny")
        try:
            client.design("jpeg")
        except ServerError as exc:
            assert exc.status == 429, exc
            assert exc.retry_after > 0, exc
        else:
            raise AssertionError("second request was not rate limited")
        text = client.metrics()
        assert 'repro_quota_rejections{tenant="ci-stingy"}' in text, text
    verdict = handle.stop()
    assert verdict is True, "stingy server failed to drain"
    print("  quota: 429 + Retry-After observed, rejection in metrics, "
          "clean drain")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True,
                        help="base URL of the running server")
    parser.add_argument("--tenant", default="ci-smoke")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the merged client+server Chrome "
                             "trace of the propagation check here")
    args = parser.parse_args(argv)

    client = DesignClient(args.url, tenant=args.tenant)
    wait_ready(client)
    print(f"server smoke against {args.url}:")
    fingerprints = check_design_identity(client)
    check_jobs(client, fingerprints[0])
    check_sweep(client)
    check_stream(client)
    check_metrics(client)
    check_debug(client)
    check_trace_propagation(args.trace_out)
    check_quota_429()
    print("server smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
