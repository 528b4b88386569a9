"""Closed-loop load harness for a running design server.

``repro loadtest`` drives N client threads against a server URL, each
issuing design requests round-robin over the paper's four applications,
and reports served latency percentiles plus error rates. The measured
phase runs against a *warm* cache (a warm-up pass primes every distinct
fingerprint first), so the numbers characterise the serving stack —
HTTP parse, admission, quota, and a cache hit answered on the event
loop — rather than the
design pipeline the in-process benchmarks already cover.

The report is a versioned ``loadtest-report`` document.
``--max-error-rate`` turns the harness into a gate: CI runs it at
``0``. Served latency for regression gating is measured by the
open-loop workloads in ``benchmarks/e2e/``, not here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ServerError
from ..io import FORMAT_VERSION
from ..service.metrics import MetricsRegistry, percentile
from .client import DesignClient

DEFAULT_APPS = ("canny", "jpeg", "klt", "fluid")

#: Served-latency histogram bucket upper bounds (seconds). Tighter than
#: the service-side defaults: a warm-cache request is dominated by HTTP
#: parse + batching, so sub-millisecond resolution is where the signal is.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)


@dataclass(frozen=True)
class LoadtestConfig:
    """Knobs for one load-test run."""

    url: str
    apps: Sequence[str] = DEFAULT_APPS
    requests: int = 200
    concurrency: int = 8
    tenant: Optional[str] = None
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigurationError("requests must be >= 1")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if not self.apps:
            raise ConfigurationError("apps must be non-empty")


@dataclass
class _Worker:
    """Per-thread tally; merged single-threaded after join."""

    latencies_s: List[float] = field(default_factory=list)
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    first_error: str = ""


def _drive(
    config: LoadtestConfig, indices: Sequence[int], tally: _Worker
) -> None:
    client = DesignClient(
        config.url, tenant=config.tenant, timeout_s=config.timeout_s
    )
    apps = list(config.apps)
    for i in indices:
        app = apps[i % len(apps)]
        start = time.perf_counter()
        try:
            client.design(app)
        except ServerError as exc:
            if exc.status == 429:
                tally.rejected += 1
            else:
                tally.errors += 1
            if not tally.first_error:
                tally.first_error = f"{type(exc).__name__}: {exc}"
            continue
        except OSError as exc:
            tally.errors += 1
            if not tally.first_error:
                tally.first_error = f"{type(exc).__name__}: {exc}"
            continue
        tally.latencies_s.append(time.perf_counter() - start)
        tally.ok += 1


def run_loadtest(config: LoadtestConfig) -> Dict[str, Any]:
    """Warm the cache, run the measured phase, return the report doc."""
    warm_client = DesignClient(
        config.url, tenant=config.tenant, timeout_s=config.timeout_s
    )
    for app in config.apps:
        warm_client.design(app)  # prime every distinct fingerprint

    tallies = [_Worker() for _ in range(config.concurrency)]
    threads = []
    for w in range(config.concurrency):
        indices = range(w, config.requests, config.concurrency)
        thread = threading.Thread(
            target=_drive,
            args=(config, indices, tallies[w]),
            name=f"loadtest-{w}",
        )
        threads.append(thread)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = max(time.perf_counter() - wall_start, 1e-9)

    latencies = sorted(
        lat for tally in tallies for lat in tally.latencies_s
    )
    # Bucketed view of the same observations, in Prometheus cumulative
    # ``le`` form — the registry is the single histogram implementation.
    registry = MetricsRegistry()
    for lat in latencies:
        registry.hist(
            "loadtest_latency_seconds", lat, buckets=LATENCY_BUCKETS
        )
    hist = registry.snapshot()["histograms"].get(
        "loadtest_latency_seconds",
        {"count": 0, "sum": 0.0, "buckets": {}},
    )
    ok = sum(t.ok for t in tallies)
    rejected = sum(t.rejected for t in tallies)
    errors = sum(t.errors for t in tallies)
    failed = rejected + errors
    first_error = next(
        (t.first_error for t in tallies if t.first_error), ""
    )
    return {
        "kind": "loadtest-report",
        "version": FORMAT_VERSION,
        "url": config.url,
        "apps": list(config.apps),
        "requests": config.requests,
        "concurrency": config.concurrency,
        "ok": ok,
        "rejected": rejected,
        "errors": errors,
        "error_rate": failed / config.requests,
        "first_error": first_error,
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p95_ms": percentile(latencies, 95.0) * 1e3,
        "p99_ms": percentile(latencies, 99.0) * 1e3,
        "mean_ms": (
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
        ),
        "throughput_rps": ok / wall_s,
        "wall_s": wall_s,
        "latency_hist": hist,
    }


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-screen summary."""
    lines = [
        f"loadtest against {report['url']}",
        (
            f"  {report['requests']} requests x "
            f"{report['concurrency']} threads over "
            f"{report['apps']}"
        ),
        (
            f"  ok {report['ok']}, rejected {report['rejected']}, "
            f"errors {report['errors']} "
            f"(error rate {report['error_rate']:.3f})"
        ),
        (
            f"  latency p50 {report['p50_ms']:.2f}ms, "
            f"p95 {report.get('p95_ms', 0.0):.2f}ms, "
            f"p99 {report['p99_ms']:.2f}ms, "
            f"mean {report['mean_ms']:.2f}ms"
        ),
        f"  throughput {report['throughput_rps']:.1f} req/s",
    ]
    hist = report.get("latency_hist") or {}
    buckets = hist.get("buckets") or {}
    if hist.get("count"):
        lines.append("  latency histogram (cumulative):")
        total = hist["count"]
        for bound, cum in buckets.items():
            label = (
                "+Inf" if bound == "+Inf"
                else f"<= {float(bound) * 1e3:.1f}ms"
            )
            bar = "#" * round(20 * cum / total) if total else ""
            lines.append(f"    {label:>12} {cum:>6} {bar}")
    if report["first_error"]:
        lines.append(f"  first error: {report['first_error']}")
    return "\n".join(lines)
