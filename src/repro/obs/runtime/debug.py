"""Renderers for runtime introspection: ``repro top`` over ``/v1/debug``.

The server assembles the live-state document (see
:func:`repro.server.protocol.debug_response`); this module only turns
that document — plus, optionally, the raw ``/metrics`` exposition —
into a terminal dashboard. Pure functions returning strings: printing
is the CLI's job (and the R5 lint rule bans raw ``print`` under
``repro.obs`` precisely so modules like this stay renderers).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = ["render_top"]

_BAR_WIDTH = 24


def _bar(value: float, limit: float, width: int = _BAR_WIDTH) -> str:
    """``[#####.....]`` utilization bar; clamped, safe for limit<=0."""
    frac = 0.0 if limit <= 0 else min(1.0, max(0.0, value / limit))
    filled = int(round(frac * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _num(node: Mapping[str, object], key: str, default: float = 0.0) -> float:
    value = node.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    return float(value)


def _section(node: object) -> Mapping[str, object]:
    return node if isinstance(node, Mapping) else {}


def _latency_lines(metrics_text: str, limit: int = 6) -> List[str]:
    """Pick the per-route exemplar gauges out of a /metrics scrape."""
    rows = [line for line in metrics_text.splitlines()
            if line.startswith("repro_http_request_last_seconds{")]
    return rows[:limit]


def render_top(
    doc: Mapping[str, object],
    metrics_text: Optional[str] = None,
    events_shown: int = 8,
) -> str:
    """One frame of the ``repro top`` dashboard.

    ``doc`` is the full ``debug-response`` envelope (or just its
    ``debug`` body — both are accepted so tests can feed the body
    directly). Missing sections render as empty rather than raising:
    a dashboard must degrade, not crash, against an older server.
    """
    debug = _section(doc.get("debug", doc))
    lines: List[str] = []

    admission = _section(debug.get("admission"))
    inflight = _num(admission, "inflight")
    max_inflight = _num(admission, "max_inflight")
    queued = _num(admission, "queue_depth")
    max_queue = _num(admission, "max_queue")
    draining = bool(admission.get("draining", False))
    state = "DRAINING" if draining else "serving"
    lines.append(
        f"repro top — {state}, uptime {_num(debug, 'uptime_s'):8.1f}s, "
        f"trace {doc.get('trace_id', '')}"
    )
    lines.append(
        f"  inflight {_bar(inflight, max_inflight)} "
        f"{inflight:.0f}/{max_inflight:.0f}   "
        f"queue {_bar(queued, max_queue)} {queued:.0f}/{max_queue:.0f}   "
        f"ewma {_num(admission, 'latency_ewma_s') * 1e3:.1f}ms"
    )

    executor = _section(debug.get("executor"))
    lines.append(
        f"  executor: {_num(executor, 'inflight'):.0f} in flight, "
        f"oldest {_num(executor, 'oldest_age_s') * 1e3:.1f}ms"
    )

    cache = _section(debug.get("cache"))
    service = _section(debug.get("service"))
    hits = _num(cache, "hits_memory") + _num(cache, "hits_disk")
    lines.append(
        f"  cache: {hits:.0f} hits / "
        f"{_num(cache, 'misses'):.0f} misses   "
        f"service: {_num(service, 'jobs_submitted'):.0f} submitted, "
        f"{_num(service, 'jobs_coalesced'):.0f} coalesced, "
        f"{_num(service, 'jobs_failed'):.0f} failed"
    )

    tenants = _section(debug.get("tenants"))
    if tenants:
        lines.append("  tenants (tokens remaining):")
        for name in sorted(tenants):
            bucket = _section(tenants[name])
            remaining = _num(bucket, "remaining")
            burst = _num(bucket, "burst")
            lines.append(
                f"    {name:<24} {_bar(remaining, burst)} "
                f"{remaining:6.1f}/{burst:.0f}"
            )

    requests = debug.get("inflight_requests")
    if isinstance(requests, Sequence) and requests:
        lines.append("  in-flight requests:")
        for row in requests:
            entry = _section(row)
            lines.append(
                f"    {str(entry.get('trace_id', '')):<32} "
                f"{str(entry.get('route', '')):<18} "
                f"{str(entry.get('tenant', '')):<16} "
                f"age {_num(entry, 'age_s') * 1e3:8.1f}ms"
            )

    events = _section(debug.get("events"))
    recent = events.get("recent")
    if isinstance(recent, Sequence) and recent:
        lines.append(f"  recent events (last {events_shown}):")
        for row in list(recent)[-events_shown:]:
            entry = _section(row)
            fields = _section(entry.get("fields"))
            detail = " ".join(
                f"{key}={fields[key]}" for key in sorted(fields)
            )
            lines.append(
                f"    {str(entry.get('kind', '')):<18} "
                f"trace={str(entry.get('trace_id', ''))[:16]:<16} "
                f"{detail}"
            )

    if metrics_text:
        exemplars = _latency_lines(metrics_text)
        if exemplars:
            lines.append("  last request latency per route (exemplars):")
            lines.extend(f"    {row}" for row in exemplars)

    return "\n".join(lines)
