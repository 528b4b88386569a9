"""``repro.server`` — a networked front end for the design service.

A dependency-free asyncio HTTP layer over
:class:`repro.service.DesignService`: JSON design/sweep endpoints, an
SSE streaming sweep, cache hits answered on the event loop (misses go
straight to ``submit_many`` on an executor thread), admission control
with backpressure (429 + ``Retry-After``), per-tenant token-bucket
quotas, Prometheus metrics, per-request trace spans, and
graceful drain on SIGTERM. Served results are byte-identical to the
in-process pipeline because both sides serialize the same
``result_summary`` dict through ``canonical_json``.

Layering (each module only imports downward):

``runtime`` → ``app`` → {``admission``, ``quota``, ``protocol``,
``http``} → ``repro.service``. The blocking ``client``
and the ``loadtest`` harness sit beside the server and speak only the
wire protocol.
"""

from ..obs.runtime.events import NULL_LOG, EventLog
from ..obs.runtime.tracecontext import (
    TraceContext,
    format_traceparent,
    new_trace_context,
    parse_traceparent,
)
from .admission import AdmissionController
from .app import DesignServer, ServerConfig
from .client import DesignClient
from .loadtest import LoadtestConfig, run_loadtest
from .quota import QuotaManager, sanitize_tenant
from .runtime import ServerHandle, run_server, serve, start_in_thread

__all__ = [
    "AdmissionController",
    "DesignClient",
    "DesignServer",
    "EventLog",
    "LoadtestConfig",
    "NULL_LOG",
    "QuotaManager",
    "ServerConfig",
    "ServerHandle",
    "TraceContext",
    "format_traceparent",
    "new_trace_context",
    "parse_traceparent",
    "run_server",
    "sanitize_tenant",
    "serve",
    "start_in_thread",
]
