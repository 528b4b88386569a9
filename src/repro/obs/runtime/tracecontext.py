"""W3C-style trace-context propagation.

A request's identity on the wire is a ``traceparent`` header::

    00-<32 lowercase hex trace-id>-<16 lowercase hex span-id>-<2 hex flags>

(`W3C Trace Context <https://www.w3.org/TR/trace-context/>`_, level 1).
``DesignClient`` mints a fresh context per request; ``DesignServer``
parses it (or mints its own for clients that send none) and threads the
``trace_id`` through admission → quota → cache lookup (a hit ends
there) → ``submit_many`` → ``run_job``, so the spans each
process records can be merged into one connected per-request trace,
and every event in the runtime
:class:`~repro.obs.runtime.events.EventLog` can be joined back to the
request that caused it.

Parsing is deliberately forgiving: a malformed header yields ``None``
and the server simply starts a new trace — an instrumentation bug must
never fail a request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = [
    "TraceContext",
    "format_traceparent",
    "new_trace_context",
    "parse_traceparent",
]

_TRACE_ID_CHARS = 32
_SPAN_ID_CHARS = 16
_SUPPORTED_VERSION = "00"
_HEX = frozenset("0123456789abcdef")


def _is_hex(value: str, width: int) -> bool:
    return len(value) == width and all(c in _HEX for c in value)


@dataclass(frozen=True)
class TraceContext:
    """One hop of a distributed trace: ``trace_id`` names the whole
    request, ``span_id`` names this hop within it."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self) -> "TraceContext":
        """A new hop in the same trace (fresh ``span_id``)."""
        return replace(self, span_id=_random_hex(_SPAN_ID_CHARS))

    def to_traceparent(self) -> str:
        flags = "01" if self.sampled else "00"
        return f"{_SUPPORTED_VERSION}-{self.trace_id}-{self.span_id}-{flags}"


def _random_hex(chars: int) -> str:
    return os.urandom(chars // 2).hex()


def new_trace_context() -> TraceContext:
    """Mint a fresh root context with random ids (``os.urandom``)."""
    return TraceContext(
        trace_id=_random_hex(_TRACE_ID_CHARS),
        span_id=_random_hex(_SPAN_ID_CHARS),
        sampled=True,
    )


def format_traceparent(ctx: TraceContext) -> str:
    return ctx.to_traceparent()


def parse_traceparent(header: object) -> TraceContext | None:
    """Parse a ``traceparent`` header value.

    Returns ``None`` for anything malformed (wrong shape, bad hex,
    all-zero ids, reserved version ``ff``) rather than raising: the
    caller falls back to a fresh context. Per the spec, versions above
    ``00`` are accepted as long as the first four fields parse.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if not _is_hex(version, 2) or version == "ff":
        return None
    if version == _SUPPORTED_VERSION and len(parts) != 4:
        return None
    if not _is_hex(trace_id, _TRACE_ID_CHARS) or trace_id == "0" * _TRACE_ID_CHARS:
        return None
    if not _is_hex(span_id, _SPAN_ID_CHARS) or span_id == "0" * _SPAN_ID_CHARS:
        return None
    if not _is_hex(flags, 2):
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return TraceContext(trace_id=trace_id, span_id=span_id, sampled=sampled)
