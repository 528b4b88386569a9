"""The ``flight-report`` artifact: build, write, load, render.

One versioned JSON document captures everything a post-mortem needs:
why the dump happened (``reason``), every thread's Python stack at dump
time (``sys._current_frames()`` — no signals, works from any thread),
the flight recorder's three rings (recent spans / events / metrics
snapshots), the watchdog's view, and a free-form ``state`` section the
server fills with admission/executor/pool counters.

The document carries ``kind``/``version`` like every other artifact in
the repo (:data:`FLIGHT_KIND`, :data:`~repro.io.FORMAT_VERSION`), so
``repro postmortem`` refuses files it does not understand instead of
rendering garbage. Rendering is a pure function returning a string —
printing is the CLI's job (rule R5 bans ``print`` in ``repro.obs``).
"""

from __future__ import annotations

import os
import pathlib
import platform
import sys
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Union

from ...io import FORMAT_VERSION, load_json, save_json, validate_document
from .recorder import FlightRecorder
from .watchdog import StallWatchdog

#: Document kind of a post-mortem dump.
FLIGHT_KIND = "flight-report"


def frame_label(filename: str, func: str, lineno: int = 0) -> str:
    """Compact, needle-friendly label: ``func (pkg/file.py[:line])``."""
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:])
    if lineno > 0:
        return f"{func} ({short}:{lineno})"
    return f"{func} ({short})"


def thread_stacks(max_depth: int = 64) -> List[Dict[str, Any]]:
    """Every live thread's Python stack, root-first, with line numbers.

    Taken via ``sys._current_frames()`` so it works from any thread —
    including the watchdog thread while the event loop is blocked,
    which is precisely the moment this matters.
    """
    frames = sys._current_frames()
    by_ident = {t.ident: t for t in threading.enumerate()}
    rows: List[Dict[str, Any]] = []
    for tid in sorted(frames):
        frame: Optional[Any] = frames[tid]
        stack: List[str] = []
        depth = 0
        while frame is not None and depth < max_depth:
            code = frame.f_code
            stack.append(
                frame_label(code.co_filename, code.co_name, frame.f_lineno)
            )
            frame = frame.f_back
            depth += 1
        stack.reverse()
        thread = by_ident.get(tid)
        rows.append({
            "tid": tid,
            "name": thread.name if thread is not None else f"tid-{tid}",
            "daemon": thread.daemon if thread is not None else False,
            "stack": stack,
        })
    return rows


def build_flight_report(
    reason: str,
    recorder: Optional[FlightRecorder] = None,
    watchdog: Optional[StallWatchdog] = None,
    state: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the versioned dump document from live process state."""
    rings: Dict[str, Any] = {
        "spans": [],
        "events": [],
        "metric_snapshots": [],
    }
    if recorder is not None:
        rings = recorder.rings()
    return {
        "kind": FLIGHT_KIND,
        "version": FORMAT_VERSION,
        "reason": reason,
        "ts": time.time(),
        "pid": os.getpid(),
        "python": platform.python_version(),
        "threads": thread_stacks(),
        "rings": rings,
        "watchdog": watchdog.status() if watchdog is not None else None,
        "state": dict(state) if state is not None else {},
    }


def write_flight_dump(
    doc: Dict[str, Any], directory: Union[str, pathlib.Path] = "."
) -> pathlib.Path:
    """Write one dump file; returns its path.

    File names embed the UTC timestamp and pid
    (``flight-20260808T120000-pid1234.json``) with a counter suffix on
    collision, so repeated dumps from one process never overwrite.
    """
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime(
        "%Y%m%dT%H%M%S", time.gmtime(float(doc.get("ts", time.time())))
    )
    base = f"flight-{stamp}-pid{doc.get('pid', os.getpid())}"
    path = out_dir / f"{base}.json"
    suffix = 1
    while path.exists():
        path = out_dir / f"{base}-{suffix}.json"
        suffix += 1
    save_json(doc, path)
    return path


def load_flight_report(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Load and validate a dump (``kind``/``version`` envelope)."""
    doc = load_json(path)
    validate_document(doc, FLIGHT_KIND)
    return doc


def _render_threads(doc: Dict[str, Any], frames_shown: int) -> List[str]:
    lines: List[str] = []
    for row in doc.get("threads", []):
        flags = " daemon" if row.get("daemon") else ""
        lines.append(f"  thread {row['name']} (tid {row['tid']}{flags})")
        stack = row.get("stack", [])
        for label in stack[-frames_shown:]:
            lines.append(f"    {label}")
        if len(stack) > frames_shown:
            lines.append(f"    ... ({len(stack) - frames_shown} outer "
                         "frames elided)")
    return lines


def render_flight_report(
    doc: Dict[str, Any], events_shown: int = 15, frames_shown: int = 12
) -> str:
    """Human-readable post-mortem (the ``repro postmortem`` body)."""
    when = time.strftime(
        "%Y-%m-%d %H:%M:%SZ", time.gmtime(float(doc.get("ts", 0.0)))
    )
    lines = [
        f"flight report: {doc.get('reason', '?')}",
        f"  captured {when} by pid {doc.get('pid', '?')} "
        f"(python {doc.get('python', '?')})",
    ]
    watchdog = doc.get("watchdog")
    if watchdog:
        stalled = watchdog.get("stalled", {})
        lines.append(
            f"  watchdog: {watchdog.get('trips', 0)} trip(s), "
            f"{len(stalled)} active stall(s), "
            f"checks: {', '.join(watchdog.get('checks', [])) or '-'}"
        )
        for source, message in sorted(stalled.items()):
            lines.append(f"    STALLED {source}: {message}")
    state = doc.get("state", {})
    if state:
        lines.append("  server state:")
        for section in sorted(state):
            lines.append(f"    {section}: {state[section]}")
    lines.append(f"threads ({len(doc.get('threads', []))}):")
    lines.extend(_render_threads(doc, frames_shown))
    rings = doc.get("rings", {})
    events = rings.get("events", [])
    lines.append(f"recent events ({len(events)} in ring):")
    for event in events[-events_shown:]:
        fields = event.get("fields", {})
        extras = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        trace = event.get("trace_id") or "-"
        lines.append(
            f"  [{event.get('seq', '?'):>5}] {event.get('kind', '?'):<18} "
            f"trace={trace:<34} {extras}".rstrip()
        )
    spans = rings.get("spans", [])
    lines.append(f"recent spans ({len(spans)} in ring):")
    for span in spans[-events_shown:]:
        lines.append(
            f"  [{span.get('seq', '?'):>5}] {span.get('name', '?'):<18} "
            f"{span.get('duration_us', 0.0) / 1e3:>10.3f}ms "
            f"{span.get('category', '')}"
        )
    snapshots = rings.get("metric_snapshots", [])
    lines.append(f"metric snapshots ({len(snapshots)} in ring)")
    if snapshots:
        latest = snapshots[-1]
        metrics = latest.get("metrics", {})
        counters = metrics.get("counters", {})
        lines.append(
            f"  latest (age {latest.get('age_s', '?')}s): "
            f"{len(counters)} counter series"
        )
        for name in sorted(counters)[:10]:
            lines.append(f"    {name} = {counters[name]}")
    return "\n".join(lines)
