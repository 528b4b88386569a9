"""Span tracing for the experiment pipeline.

:class:`Tracer` records nested, monotonic-clock-timed spans through a
context-manager API and exports them as JSONL or Chrome ``trace_event``
JSON (loadable in ``chrome://tracing`` / Perfetto). It is deliberately
zero-dependency and cheap:

* the default everywhere is :data:`NULL_TRACER`, a :class:`NullTracer`
  whose ``span()`` hands back one shared no-op context manager — the
  disabled path allocates nothing and records nothing;
* recording appends to an in-memory buffer under a lock, so threads can
  share one tracer; worker *processes* build their own tracer and the
  service merges the serialized spans back (:meth:`Tracer.merge`);
* timestamps come from ``time.perf_counter`` (monotonic), relative to
  the tracer's construction. Wall-clock values are confined to the
  ``start_us``/``duration_us`` fields so determinism tests can compare
  everything else.

This is *pipeline* tracing — not to be confused with the QUAD-style
memory-access tracer in :mod:`repro.profiling.tracer`.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union


@dataclass(frozen=True)
class SpanEvent:
    """One recorded span (or instant marker)."""

    name: str
    category: str
    #: Monotonic microseconds since the owning tracer's epoch.
    start_us: float
    duration_us: float
    pid: int
    tid: int
    #: Record order within the emitting tracer (merge keeps per-worker order).
    seq: int
    #: Chrome trace phase: ``"X"`` complete span, ``"i"`` instant.
    phase: str = "X"
    args: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON/pickle-safe plain-dict form (the JSONL record shape)."""
        return {
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "pid": self.pid,
            "tid": self.tid,
            "seq": self.seq,
            "phase": self.phase,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanEvent":
        """Inverse of :meth:`as_dict`."""
        return cls(
            name=data["name"],
            category=data["category"],
            start_us=data["start_us"],
            duration_us=data["duration_us"],
            pid=data["pid"],
            tid=data["tid"],
            seq=data["seq"],
            phase=data.get("phase", "X"),
            args=dict(data.get("args", {})),
        )

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` form of this span."""
        event: Dict[str, Any] = {
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "ts": self.start_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": dict(self.args),
        }
        if self.phase == "X":
            event["dur"] = self.duration_us
        else:
            event["s"] = "t"  # instant scope: thread
        return event


class Tracer:
    """Collects nested spans; thread-safe, per-process buffers."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._events: List[SpanEvent] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this tracer records anything (``False`` for the null)."""
        return True

    @property
    def epoch_s(self) -> float:
        """The ``time.perf_counter`` value span timestamps are relative
        to — lets a caller place its own perf_counter timestamps on
        this tracer's timeline."""
        return self._epoch

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    @contextlib.contextmanager
    def span(self, name: str, category: str = "pipeline", **args: Any) -> Iterator[None]:
        """Record the enclosed block as one complete span."""
        start = self._now_us()
        try:
            yield
        finally:
            end = self._now_us()
            self._append(
                SpanEvent(
                    name=name,
                    category=category,
                    start_us=start,
                    duration_us=end - start,
                    pid=self._pid,
                    tid=threading.get_ident(),
                    seq=0,  # assigned under the lock
                    phase="X",
                    args=args,
                )
            )

    def instant(self, name: str, category: str = "pipeline", **args: Any) -> None:
        """Record a zero-duration marker at the current time."""
        now = self._now_us()
        self._append(
            SpanEvent(
                name=name,
                category=category,
                start_us=now,
                duration_us=0.0,
                pid=self._pid,
                tid=threading.get_ident(),
                seq=0,
                phase="i",
                args=args,
            )
        )

    def _append(self, event: SpanEvent) -> None:
        with self._lock:
            object.__setattr__(event, "seq", len(self._events))
            self._events.append(event)

    # -- merging -----------------------------------------------------------
    def merge(self, spans: Iterable[Union[SpanEvent, Mapping[str, Any]]]) -> int:
        """Adopt spans from another tracer (e.g. a worker process).

        Accepts :class:`SpanEvent` objects or their :meth:`~SpanEvent.as_dict`
        form; the original ``pid``/``tid`` are preserved so per-worker
        lanes stay separate in chrome://tracing. Returns the count merged.
        """
        incoming = [
            s if isinstance(s, SpanEvent) else SpanEvent.from_dict(s)
            for s in spans
        ]
        with self._lock:
            base = len(self._events)
            for i, ev in enumerate(incoming):
                object.__setattr__(ev, "seq", base + i)
                self._events.append(ev)
        return len(incoming)

    # -- inspection / export -----------------------------------------------
    @property
    def events(self) -> Tuple[SpanEvent, ...]:
        """All recorded spans, record order."""
        with self._lock:
            return tuple(self._events)

    def as_dicts(self) -> List[Dict[str, Any]]:
        """All spans as plain dicts (pickle/JSON-safe worker transport)."""
        return [e.as_dict() for e in self.events]

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` JSON document (``traceEvents`` array)."""
        return {
            "traceEvents": [e.to_chrome() for e in self.events],
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the chrome://tracing-loadable JSON file; returns the path."""
        out = pathlib.Path(path)
        out.write_text(json.dumps(self.to_chrome_trace()) + "\n")
        return out

    def to_jsonl(self) -> str:
        """One JSON object per line, record order."""
        return "".join(json.dumps(d, sort_keys=True) + "\n" for d in self.as_dicts())

    def write_jsonl(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the JSONL form; returns the path."""
        out = pathlib.Path(path)
        out.write_text(self.to_jsonl())
        return out


class _NullContext:
    """A reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer(Tracer):
    """The off-by-default tracer: every operation is a no-op."""

    def __init__(self) -> None:  # no buffers, no lock, no clock reads
        pass

    @property
    def enabled(self) -> bool:
        return False

    @property
    def epoch_s(self) -> float:
        return 0.0

    def span(self, name: str, category: str = "pipeline", **args: Any):  # type: ignore[override]
        return _NULL_CONTEXT

    def instant(self, name: str, category: str = "pipeline", **args: Any) -> None:
        return None

    def merge(self, spans: Iterable[Union[SpanEvent, Mapping[str, Any]]]) -> int:
        return 0

    @property
    def events(self) -> Tuple[SpanEvent, ...]:
        return ()


#: Shared no-op tracer; ``tracer or NULL_TRACER`` is the idiom everywhere.
NULL_TRACER = NullTracer()


def active(tracer: Optional[Tracer]) -> Tracer:
    """Normalize an optional tracer argument to a usable instance."""
    return NULL_TRACER if tracer is None else tracer


@contextlib.contextmanager
def timed(registry: Any, name: str, labels: Optional[Mapping[str, Any]] = None) -> Iterator[None]:
    """Observe the enclosed block's wall time into a metrics registry.

    The one sanctioned place where a clock meets the registry: the
    registry itself stays clock-free (see :mod:`repro.service.metrics`).
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        registry.observe(name, time.perf_counter() - start, labels=labels)
