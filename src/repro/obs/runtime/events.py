"""Structured runtime event log: a typed ring buffer with a JSONL sink.

Where :class:`repro.obs.trace.Tracer` answers "*how long* did each stage
of this request take", the :class:`EventLog` answers "*what happened*,
in order, across all requests": admissions rejected, quotas tripped,
batches flushed, caches hit, pools recycled, drains progressing. Every
event carries the W3C trace id of the request that caused it (see
:mod:`repro.obs.runtime.tracecontext`), so the log joins against both
the span trees and the response envelopes.

Design rules, matching the rest of ``repro.obs``:

* **Typed kinds.** ``emit`` refuses kinds outside :data:`EVENT_KINDS` —
  an event stream you can't enumerate is an event stream you can't
  alert on.
* **Bounded memory.** Events land in a ``deque(maxlen=capacity)`` ring;
  the optional JSONL file sink is the durable copy.
* **Null object.** :data:`NULL_LOG` mirrors ``NULL_TRACER`` /
  ``NULL_RECORDER``: hot paths guard with ``if events.enabled:`` so a
  disabled log costs one attribute read and a branch — zero
  allocations (asserted in ``tests/test_runtime_obs.py``).
* **Sanitized values.** Tenants pass through :func:`sanitize_tenant`
  (whose definition *lives here* now — ``repro.server.quota``
  re-exports it) and free-form string fields are scrubbed of
  non-printable characters with the same policy, so a hostile header
  can't smuggle newlines into the JSONL stream. Label-style escaping
  for Prometheus is still :func:`repro.service.metrics.metric_key`'s
  job, which :meth:`EventLog.metric_counts` reuses.

Thread-safety: a single lock guards the ring, the counters, and the
sink. Emission happens on the event loop *and* on executor threads, so
this is load-bearing, not ceremony.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, IO, Mapping, Optional, Tuple, Union

from ...errors import ConfigurationError

__all__ = [
    "DEFAULT_TENANT",
    "EVENT_KINDS",
    "MAX_TENANT_CHARS",
    "NULL_LOG",
    "EventLog",
    "NullEventLog",
    "RuntimeEvent",
    "sanitize_tenant",
]

#: Tenant bucket for requests without an ``X-Tenant`` header.
DEFAULT_TENANT = "anonymous"

#: Longest accepted tenant id; the rest is truncated, keeping metric
#: label cardinality and exposition line length bounded.
MAX_TENANT_CHARS = 64

#: The closed vocabulary of runtime events. One entry per observable
#: state change in the serving ring; extending the system means
#: extending this set (and the DESIGN.md §13 table) in the same PR.
EVENT_KINDS = frozenset({
    "request_start",      # request admitted past parsing; fields: route
    "request_finish",     # response written; fields: route, status, duration_ms[, error]
    "admission_reject",   # 429 from the inflight/queue bound; fields: route, retry_after_s
    "quota_reject",       # 429 from the tenant token bucket; fields: route, retry_after_s
    "cache_hit",          # fingerprint served from ResultCache; fields: app, fingerprint
    "cache_miss",         # fingerprint scheduled for execution; fields: app, fingerprint
    "pool_recycle",       # worker pool torn down and rebuilt; fields: reason
    "drain_begin",        # SIGTERM/stop received, readiness dropped
    "drain_idle",         # in-flight requests drained
    "drain_done",         # worker pool reaped; fields: clean
    "watchdog_trip",      # a liveness source stalled; fields: source, detail
    "watchdog_clear",     # a stalled source recovered; fields: source
    "flight_dump",        # post-mortem dump written; fields: reason, path
})

#: Field values are restricted to JSON scalars; anything else is
#: stringified (then scrubbed like any other string).
FieldValue = Union[str, int, float, bool, None]


def sanitize_tenant(raw: str) -> str:
    """Normalize a client-supplied tenant id for quota + metric use.

    Control characters (including ``\\r``/``\\n`` — header smuggling)
    are dropped, surrounding whitespace is stripped, and the result is
    truncated to :data:`MAX_TENANT_CHARS`. An id that sanitizes to
    nothing falls back to :data:`DEFAULT_TENANT`. Printable characters
    like ``"`` and ``\\`` are *kept* — escaping them is the metric
    layer's job (:func:`repro.service.metrics.metric_key`), and the
    quota table is a plain dict where any string key is safe.
    """
    cleaned = "".join(ch for ch in raw if ch.isprintable()).strip()
    cleaned = cleaned[:MAX_TENANT_CHARS]
    return cleaned if cleaned else DEFAULT_TENANT


def _clean_field(value: object) -> FieldValue:
    """Coerce an event field to a JSON scalar, scrubbing strings."""
    if value is None or isinstance(value, (bool, int, float)):
        return value
    text = value if isinstance(value, str) else str(value)
    return "".join(ch for ch in text if ch.isprintable())[:256]


@dataclass(frozen=True)
class RuntimeEvent:
    """One entry in the log; immutable once recorded."""

    seq: int
    ts: float
    kind: str
    trace_id: str
    tenant: str
    fields: Mapping[str, FieldValue] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "fields": dict(self.fields),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


class EventLog:
    """Ring buffer of :class:`RuntimeEvent` with an optional JSONL sink.

    ``capacity`` bounds the in-memory ring (``/v1/debug`` serves its
    tail); ``sink`` is a path whose file receives every event as one
    JSON line, opened lazily on first emit and flushed per line so a
    crash loses at most the event being written.

    ``sink_max_bytes`` caps the sink file: once appending the next line
    would cross the cap, the current file rotates to ``<sink>.1``
    (replacing any previous rotation) and a fresh file starts — a
    long-running server keeps at most two generations on disk instead
    of an unbounded log (``repro serve --event-log-max-mb``).
    """

    enabled: bool = True

    def __init__(self, capacity: int = 1024,
                 sink: Optional[str] = None,
                 sink_max_bytes: Optional[int] = None) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"event log capacity must be >= 1, got {capacity}"
            )
        if sink_max_bytes is not None and sink_max_bytes < 1:
            raise ConfigurationError(
                f"sink_max_bytes must be >= 1, got {sink_max_bytes}"
            )
        self._capacity = int(capacity)
        self._ring: Tuple[RuntimeEvent, ...] = ()
        self._buffer: list[RuntimeEvent] = []
        self._counts: Dict[str, int] = {}
        self._seq = 0
        self._sink_path = sink
        self._sink: Optional[IO[str]] = None
        self._sink_max_bytes = sink_max_bytes
        self._sink_bytes = 0
        self._rotations = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def emit(self, kind: str, *, trace_id: str = "", tenant: str = "",
             **fields: object) -> Optional[RuntimeEvent]:
        """Record one event; returns it (the null log returns ``None``).

        ``kind`` must come from :data:`EVENT_KINDS`; ``tenant`` is
        sanitized, field values scrubbed to printable JSON scalars.
        """
        if kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown runtime event kind {kind!r}; "
                f"known: {', '.join(sorted(EVENT_KINDS))}"
            )
        clean_fields = {key: _clean_field(value)
                        for key, value in sorted(fields.items())}
        clean_tenant = sanitize_tenant(tenant) if tenant else ""
        with self._lock:
            event = RuntimeEvent(
                seq=self._seq,
                ts=time.time(),
                kind=kind,
                trace_id=trace_id,
                tenant=clean_tenant,
                fields=clean_fields,
            )
            self._seq += 1
            self._buffer.append(event)
            if len(self._buffer) > self._capacity:
                del self._buffer[: len(self._buffer) - self._capacity]
            self._counts[kind] = self._counts.get(kind, 0) + 1
            if self._sink_path is not None:
                if self._sink is None:
                    self._sink = open(self._sink_path, "a", encoding="utf-8")
                    self._sink_bytes = self._sink.tell()
                line = event.to_json() + "\n"
                encoded = len(line.encode("utf-8"))
                if (
                    self._sink_max_bytes is not None
                    and self._sink_bytes > 0
                    and self._sink_bytes + encoded > self._sink_max_bytes
                ):
                    self._rotate_locked()
                self._sink.write(line)
                self._sink_bytes += encoded
                self._sink.flush()
        return event

    def _rotate_locked(self) -> None:
        """Roll the sink to ``<path>.1`` and start fresh (lock held)."""
        assert self._sink is not None and self._sink_path is not None
        self._sink.close()
        os.replace(self._sink_path, self._sink_path + ".1")
        self._sink = open(self._sink_path, "a", encoding="utf-8")
        self._sink_bytes = 0
        self._rotations += 1

    @property
    def rotations(self) -> int:
        """Sink rollovers performed since construction."""
        with self._lock:
            return self._rotations

    def events(self) -> Tuple[RuntimeEvent, ...]:
        """Ring contents, oldest first."""
        with self._lock:
            return tuple(self._buffer)

    def tail(self, n: int) -> Tuple[RuntimeEvent, ...]:
        """The most recent ``n`` events, oldest first."""
        if n <= 0:
            return ()
        with self._lock:
            return tuple(self._buffer[-n:])

    def counts(self) -> Dict[str, int]:
        """Total emits per kind since construction (not ring-bounded)."""
        with self._lock:
            return dict(self._counts)

    def metric_counts(self) -> Dict[str, int]:
        """:meth:`counts` keyed as Prometheus series names.

        Reuses :func:`repro.service.metrics.metric_key` so kind labels
        get the same escaping as every other label value in the repo.
        (Imported lazily: ``repro.obs.runtime`` sits below the service
        layer in the import DAG.)
        """
        from ...service.metrics import metric_key

        return {
            metric_key("runtime_events", {"kind": kind}): count
            for kind, count in sorted(self.counts().items())
        }

    def to_jsonl(self) -> str:
        """The ring as JSONL (the sink file holds the full history)."""
        return "".join(event.to_json() + "\n" for event in self.events())

    def close(self) -> None:
        """Close the sink file, if one was opened. Idempotent."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


class NullEventLog(EventLog):
    """Do-nothing log: the default wherever telemetry is optional.

    Call sites on hot paths guard with ``if events.enabled:`` so the
    disabled cost is one attribute read — no kwargs dict, no lock, no
    event object. ``emit`` is still safe to call directly (returns
    ``None``), it just records nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, kind: str, *, trace_id: str = "", tenant: str = "",
             **fields: object) -> Optional[RuntimeEvent]:
        return None


#: Shared null instance, mirroring ``NULL_TRACER`` / ``NULL_RECORDER``.
NULL_LOG = NullEventLog()
