"""Stall watchdog: heartbeats and probes over the serving ring.

A server that stops making progress is worse than one that crashes —
nothing restarts it. The :class:`StallWatchdog` turns "stopped making
progress" into a detectable, reportable *edge*:

* **Heartbeats** (:class:`Heartbeat`) are pushed liveness: the watched
  component calls :meth:`Heartbeat.beat` when it runs; the watchdog
  flags it once the last beat is older than its budget. The server's
  event-loop beat task uses this — a blocked loop cannot beat, which is
  exactly the point.
* **Probes** are pulled liveness: a callable returning ``None``
  (healthy) or a human-readable stall description. The server's
  ``executor`` probe reports the age of its oldest in-flight executor
  call this way, which covers a hung worker pool (a stuck
  ``submit_many`` keeps its call in flight forever).

Trip/clear are edge-triggered per source: one ``watchdog_trip`` event
and one ``on_trip`` callback when a source enters the stalled state,
one ``watchdog_clear``/``on_clear`` when it recovers — no per-interval
spam while a stall persists. Callbacks run on the watchdog thread; the
server's trip handler degrades ``/readyz`` and writes a flight dump,
both of which are safe off the event loop.

:meth:`StallWatchdog.check_once` is the whole decision procedure and
takes no locks on the watched components, so tests drive it directly
with a fake clock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...errors import ConfigurationError
from ..runtime.events import NULL_LOG, EventLog

#: A probe: returns ``None`` when healthy, a stall description when not.
Probe = Callable[[], Optional[str]]


class Heartbeat:
    """Pushed liveness signal with a freshness budget."""

    def __init__(
        self,
        name: str,
        max_age_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_age_s <= 0:
            raise ConfigurationError(
                f"heartbeat budget must be > 0, got {max_age_s}"
            )
        self.name = name
        self.max_age_s = float(max_age_s)
        self._clock = clock
        # A float store is atomic under the GIL; beat() needs no lock.
        self._last = clock()

    def beat(self) -> None:
        """Record that the watched component just ran."""
        self._last = self._clock()

    def age_s(self) -> float:
        """Seconds since the last beat."""
        return self._clock() - self._last

    def check(self) -> Optional[str]:
        """Probe-shaped view: stall message once the budget is blown."""
        age = self.age_s()
        if age > self.max_age_s:
            return (
                f"no heartbeat for {age:.2f}s "
                f"(budget {self.max_age_s:.2f}s)"
            )
        return None


class StallWatchdog:
    """Periodically evaluates heartbeats and probes; reports edges."""

    def __init__(
        self,
        interval_s: float = 0.25,
        events: EventLog = NULL_LOG,
        on_trip: Optional[Callable[[str, str], None]] = None,
        on_clear: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(
                f"watchdog interval must be > 0, got {interval_s}"
            )
        self.interval_s = float(interval_s)
        self.events = events
        self._on_trip = on_trip
        self._on_clear = on_clear
        self._clock = clock
        self._checks: List[Tuple[str, Probe]] = []
        self._stalled: Dict[str, str] = {}
        self._trips = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- registration -------------------------------------------------------
    def heartbeat(self, name: str, max_age_s: float) -> Heartbeat:
        """Register and return a named heartbeat."""
        beat = Heartbeat(name, max_age_s, clock=self._clock)
        with self._lock:
            self._checks.append((name, beat.check))
        return beat

    def probe(self, name: str, check: Probe) -> None:
        """Register a pulled-liveness probe."""
        with self._lock:
            self._checks.append((name, check))

    # -- decision procedure -------------------------------------------------
    def check_once(self) -> List[Tuple[str, str]]:
        """Evaluate every check; fire trip/clear edges; return stalls.

        A probe that *raises* counts as a stall — a health check too
        broken to run is not evidence of health.
        """
        with self._lock:
            checks = list(self._checks)
        active: List[Tuple[str, str]] = []
        for name, check in checks:
            try:
                message = check()
            except Exception as exc:
                message = f"probe raised {type(exc).__name__}: {exc}"
            if message is not None:
                active.append((name, message))
                with self._lock:
                    fresh = name not in self._stalled
                    self._stalled[name] = message
                    if fresh:
                        self._trips += 1
                if fresh:
                    if self.events.enabled:
                        self.events.emit(
                            "watchdog_trip", source=name, detail=message
                        )
                    if self._on_trip is not None:
                        self._on_trip(name, message)
            else:
                with self._lock:
                    recovered = self._stalled.pop(name, None) is not None
                if recovered:
                    if self.events.enabled:
                        self.events.emit("watchdog_clear", source=name)
                    if self._on_clear is not None:
                        self._on_clear(name)
        return active

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the checking thread. Idempotent while running."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the checking thread. Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.check_once()

    # -- inspection ---------------------------------------------------------
    @property
    def tripped(self) -> bool:
        """Whether any source is currently stalled."""
        with self._lock:
            return bool(self._stalled)

    @property
    def trips(self) -> int:
        """Total stall episodes observed (edges, not intervals)."""
        with self._lock:
            return self._trips

    def stalled(self) -> Dict[str, str]:
        """Currently stalled sources and their latest messages."""
        with self._lock:
            return dict(self._stalled)

    def status(self) -> Dict[str, Any]:
        """JSON-safe summary for ``/v1/debug`` and flight reports."""
        with self._lock:
            return {
                "interval_s": self.interval_s,
                "checks": [name for name, _ in self._checks],
                "stalled": dict(self._stalled),
                "trips": self._trips,
                "running": (
                    self._thread is not None and self._thread.is_alive()
                ),
            }
