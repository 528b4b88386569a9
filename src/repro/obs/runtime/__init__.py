"""Runtime telemetry for the *serving system* itself.

``repro.obs`` and ``repro.obs.profile`` observe the *designs*: spans
around Algorithm 1, provenance of every decision, time-resolved lane
utilization. This subpackage observes the *system that serves them* —
the admission/quota/executor/worker ring of ``repro.server``.
Performance over time is measured by ``benchmarks/e2e/`` (end to end,
with per-layer times from the same spans), not here:

``tracecontext``
    W3C-style ``traceparent`` propagation so a single request is one
    connected trace across client, server, executor thread, and
    worker processes.
``events``
    A structured, typed JSONL event log (ring buffer + optional file
    sink) with a zero-cost ``NULL_LOG`` null object, mirroring
    ``NULL_TRACER`` / ``NULL_RECORDER``.
``debug``
    Builders/renderers for the ``GET /v1/debug`` introspection
    document and the ``repro top`` terminal dashboard.

Deliberately *not* imported from ``repro.obs.__init__``: the serving
layers import these modules, and keeping the import edges explicit
(``repro.obs.runtime.events`` → nothing above it) avoids cycles and
keeps ``import repro.obs`` light.
"""

from .events import (
    DEFAULT_TENANT,
    EVENT_KINDS,
    MAX_TENANT_CHARS,
    NULL_LOG,
    EventLog,
    NullEventLog,
    RuntimeEvent,
    sanitize_tenant,
)
from .tracecontext import (
    TraceContext,
    format_traceparent,
    new_trace_context,
    parse_traceparent,
)

__all__ = [
    "DEFAULT_TENANT",
    "EVENT_KINDS",
    "MAX_TENANT_CHARS",
    "NULL_LOG",
    "EventLog",
    "NullEventLog",
    "RuntimeEvent",
    "TraceContext",
    "format_traceparent",
    "new_trace_context",
    "parse_traceparent",
    "sanitize_tenant",
]
