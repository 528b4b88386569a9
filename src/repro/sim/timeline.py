"""ASCII timeline (Gantt) rendering of simulated executions.

The baseline system runs its kernels strictly back to back; the
proposed system overlaps them (NoC delivery during computation,
duplicated copies in parallel, pipelined chains). Seeing that overlap is
the fastest way to understand *why* the custom interconnect wins, so
:func:`render_gantt` turns the simulator's per-kernel computation spans
into a terminal chart::

    huff_dc_dec   |####                              |
    huff_ac_dec#0 |  ######################          |
    huff_ac_dec#1 |  ######################          |
    ...
"""

from __future__ import annotations

import hashlib
import math
from typing import Mapping, Sequence, Tuple

from ..errors import ConfigurationError
from .systems import SimulatedTimes

Span = Tuple[float, float]


def timeline_digest(times: SimulatedTimes, width: int = 60) -> str:
    """SHA-256 over a run's exact timeline content.

    Hashes the ``repr`` of every kernel span (full float precision — a
    one-ULP drift changes the digest) together with the rendered Gantt
    chart, so two digests match iff the timelines are byte-identical
    both numerically and as displayed. The simulator conformance
    goldens pin one digest per (case, system).
    """
    h = hashlib.sha256()
    h.update(times.label.encode())
    for name in sorted(times.kernel_spans):
        start, end = times.kernel_spans[name]
        h.update(f"{name}|{start!r}|{end!r}\n".encode())
    if times.kernel_spans:
        h.update(render_gantt(times.kernel_spans, width=width).encode())
    return h.hexdigest()

#: Busy-fraction glyph ramp for utilization lanes (blank = idle).
UTIL_RAMP = " .:-=+*#%@"


def render_gantt(
    spans: Mapping[str, Span],
    width: int = 60,
    end_time: float | None = None,
) -> str:
    """Render named spans as fixed-width ASCII bars.

    Rows are sorted by start time (ties by name). ``end_time`` sets the
    chart's right edge (defaults to the latest span end).
    """
    if width < 10:
        raise ConfigurationError(f"gantt width must be >= 10, got {width}")
    if not spans:
        return "(no spans)"
    for name, (start, end) in spans.items():
        if end < start:
            raise ConfigurationError(f"span {name!r} ends before it starts")
    horizon = end_time if end_time is not None else max(e for _, e in spans.values())
    if horizon <= 0:
        raise ConfigurationError("timeline horizon must be positive")

    name_w = max(len(n) for n in spans)
    rows = []
    for name, (start, end) in sorted(
        spans.items(), key=lambda kv: (kv[1][0], kv[0])
    ):
        lo = min(int(width * start / horizon), width - 1)
        if end == start:
            # A zero-length span is an instant, not a duration: mark it
            # with a tick instead of a phantom one-cell bar (which, for
            # a span sitting exactly at the horizon, would render as if
            # time had been spent before the end of the chart).
            bar = " " * lo + "|" + " " * (width - lo - 1)
            rows.append(f"{name:<{name_w}} |{bar}|")
            continue
        hi = min(int(-(-width * end // horizon)), width)  # ceil, clipped
        hi = max(hi, lo + 1)  # every span visible
        bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
        rows.append(f"{name:<{name_w}} |{bar}|")
    scale = f"{'':<{name_w}}  0{'':<{width - 10}}{horizon * 1e3:8.3f}ms"
    return "\n".join(rows + [scale])


def render_comparison(
    baseline: SimulatedTimes,
    proposed: SimulatedTimes,
    width: int = 60,
) -> str:
    """Side-by-side Gantt of the baseline and proposed executions.

    Both charts share the baseline's time axis so the proposed system's
    compression is visually honest.
    """
    horizon = max(baseline.kernels_s, proposed.kernels_s)
    return "\n".join(
        [
            f"baseline (makespan {baseline.kernels_s * 1e3:.3f} ms):",
            render_gantt(baseline.kernel_spans, width=width, end_time=horizon),
            "",
            f"proposed (makespan {proposed.kernels_s * 1e3:.3f} ms):",
            render_gantt(proposed.kernel_spans, width=width, end_time=horizon),
        ]
    )


def render_utilization_lanes(
    lanes: Mapping[str, Sequence[float]],
    horizon_s: float | None = None,
) -> str:
    """Render per-lane bucketed busy fractions as glyph-ramp rows.

    ``lanes`` maps a lane name to its busy fraction per time bucket
    (``repro.obs.profile.timeseries`` produces these); every lane must
    have the same bucket count, which becomes the chart width. A blank
    cell is idle, ``@`` is saturated; any non-zero fraction is visible.
    With ``horizon_s`` a time scale is appended.
    """
    if not lanes:
        return "(no lanes)"
    widths = {len(b) for b in lanes.values()}
    if len(widths) != 1:
        raise ConfigurationError(
            f"lanes disagree on bucket count: {sorted(widths)}"
        )
    width = widths.pop()
    if width < 1:
        raise ConfigurationError("utilization lanes need at least one bucket")
    n = len(UTIL_RAMP)
    name_w = max(len(name) for name in lanes)
    rows = []
    for name, buckets in lanes.items():
        cells = []
        for f in buckets:
            if f <= 0:
                cells.append(UTIL_RAMP[0])
            else:
                cells.append(UTIL_RAMP[max(1, min(n - 1, math.ceil(f * (n - 1))))])
        rows.append(f"{name:<{name_w}} |{''.join(cells)}|")
    if horizon_s is not None and width >= 10:
        rows.append(
            f"{'':<{name_w}}  0{'':<{width - 10}}{horizon_s * 1e3:8.3f}ms"
        )
    return "\n".join(rows)


def overlap_fraction(spans: Mapping[str, Span]) -> float:
    """Fraction of total busy time that overlaps another kernel.

    0.0 = strictly sequential execution (the baseline), approaching
    1.0 = everything concurrent. Computed exactly by sweeping the span
    endpoints.
    """
    items = [(s, e) for s, e in spans.values() if e > s]
    if not items:
        return 0.0
    events = sorted({t for s, e in items for t in (s, e)})
    total = sum(e - s for s, e in items)
    overlapped = 0.0
    for lo, hi in zip(events, events[1:]):
        active = sum(1 for s, e in items if s <= lo and e >= hi)
        if active >= 2:
            overlapped += (hi - lo) * active
    return overlapped / total if total > 0 else 0.0
