"""Self-observability: flight recorder, stall watchdog, post-mortems.

The pieces (DESIGN.md §15):

* :class:`FlightRecorder` / :class:`RingTracer` — always-on bounded
  rings of recent spans, runtime events, and metrics snapshots;
* :class:`StallWatchdog` / :class:`Heartbeat` — stall detection over
  heartbeats and probes, edge-triggered trip/clear events;
* :func:`build_flight_report` / :func:`write_flight_dump` /
  :func:`load_flight_report` / :func:`render_flight_report` — the
  versioned ``flight-report`` post-mortem artifact
  (:data:`FLIGHT_KIND`), rendered by ``repro postmortem``.
"""

from .recorder import FlightRecorder, RingTracer
from .report import (
    FLIGHT_KIND,
    build_flight_report,
    frame_label,
    load_flight_report,
    render_flight_report,
    thread_stacks,
    write_flight_dump,
)
from .watchdog import Heartbeat, StallWatchdog

__all__ = [
    "FLIGHT_KIND",
    "FlightRecorder",
    "Heartbeat",
    "RingTracer",
    "StallWatchdog",
    "build_flight_report",
    "frame_label",
    "load_flight_report",
    "render_flight_report",
    "thread_stacks",
    "write_flight_dump",
]
