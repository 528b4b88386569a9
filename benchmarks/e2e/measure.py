"""Statistics, host-speed correction and span analysis shared by the
benchmark's workloads.

Nothing here imports ``repro``, so the rules are testable on synthetic
inputs.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Candidate tail percentiles, in per mille so the sample-count rule is
#: exact integer arithmetic.
_TAIL_PER_MILLE = (999, 990, 950, 900, 500)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n: int) -> Optional[float]:
    """The highest tail percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten beyond it.
    """
    for per_mille in _TAIL_PER_MILLE:
        if n * (1000 - per_mille) >= 10_000:
            return per_mille / 10.0
    return None


def latency_summary(ms: Sequence[float]) -> Dict[str, Any]:
    """p25, median, p90 and p99 of a latency sample, with the count behind them."""
    supported = supported_percentile(len(ms))
    return {
        "n": len(ms),
        "p25_ms": percentile(ms, 25),
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "p99_ms": percentile(ms, 99),
        "p99_supported": supported is not None and supported >= 99.0,
        "tail_percentile_supported": supported,
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) by ``statistics.quantiles(n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median_or_zero(values: Iterable[float]) -> float:
    xs = list(values)
    return statistics.median(xs) if xs else 0.0


# -- host speed -----------------------------------------------------------------

#: What :func:`reference_loop` takes on the reference host, in
#: milliseconds. A time taken next to the loop is reported as that time
#: times this over the loop's own time: the time it would have taken on
#: a host where the loop takes exactly this long.
REFERENCE_LOOP_MS = 2.0


def reference_loop() -> float:
    """Run a fixed piece of pure-Python work; its wall time in ms.

    On a small virtual machine shared with other tenants, the same design
    call runs up to twice as long from one few-second stretch to the next,
    as neighbours load the cores and caches. This loop, like the design
    flow, is one thread of interpreted Python, so those stretches slow
    both alike, and a time divided by the loop's time next to it repeats
    where the time itself does not. The collector is off while the loop
    runs, so a heap the program left behind cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        digits = 0
        for i in range(6000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i * i
            digits += len(str(i))
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def host_factor(before_ms: float, after_ms: float) -> float:
    """Scale to the reference host for work done between two
    :func:`reference_loop` runs that took ``before_ms`` and ``after_ms``."""
    return REFERENCE_LOOP_MS / ((before_ms + after_ms) / 2)


@contextlib.contextmanager
def on_cpu(cpu: int) -> Iterator[None]:
    """Run this process on ``cpu`` alone for the duration."""
    everywhere = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, everywhere)


def setup_sample(start: Callable[[], float], cpu: int) -> Tuple[float, float]:
    """Time one set-up: ``start()`` performs it and returns its seconds.

    Returns those seconds and the same scaled to the reference host by
    reference loops run on ``cpu``, where the set-up does its work, just
    before and just after.
    """
    with on_cpu(cpu):
        before = reference_loop()
    seconds = start()
    with on_cpu(cpu):
        after = reference_loop()
    return seconds, seconds * host_factor(before, after)


# -- spans ------------------------------------------------------------------


@dataclass
class Span:
    """One complete span, linked into its thread's call tree."""

    name: str
    start_us: float
    duration_us: float
    args: Mapping[str, Any]
    parent: Optional["Span"] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def self_us(self) -> float:
        """Duration minus the part of it that child spans cover."""
        covered, reach = 0.0, self.start_us
        for child in sorted(self.children, key=lambda c: c.start_us):
            lo, hi = max(child.start_us, reach), min(child.end_us, self.end_us)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration_us - covered

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


def span_forest(events: Iterable[Mapping[str, Any]]) -> List[Span]:
    """Nest complete spans (``phase == "X"``) by time, per thread.

    Takes the dict form of ``repro.obs.trace.SpanEvent``. A span is the
    child of the innermost earlier span on the same thread that still
    contains it. Returns the roots.
    """
    by_thread: Dict[Tuple[Any, Any], List[Span]] = {}
    for ev in events:
        if ev.get("phase", "X") != "X":
            continue
        span = Span(ev["name"], ev["start_us"], ev["duration_us"], ev.get("args", {}))
        by_thread.setdefault((ev.get("pid"), ev.get("tid")), []).append(span)
    roots: List[Span] = []
    for spans in by_thread.values():
        spans.sort(key=lambda s: (s.start_us, -s.duration_us))
        stack: List[Span] = []
        for span in spans:
            # 1 ns of slack absorbs float rounding of start + duration.
            while stack and span.end_us > stack[-1].end_us + 1e-3:
                stack.pop()
            if stack:
                span.parent = stack[-1]
                stack[-1].children.append(span)
            else:
                roots.append(span)
            stack.append(span)
    return roots


def all_spans(roots: Iterable[Span]) -> Iterator[Span]:
    for root in roots:
        yield from root.walk()


#: How ``run_experiment``'s stage spans map to per-layer metric keys.
#: ``fit`` is split by graph source by the caller.
_STAGE_OF = {
    "profile": "apps.instantiate_ms",
    "fit": "fit",
    "design": "core.design_ms",
    "design.noc_only": "core.design_noc_only_ms",
    "analytic": "core.analytic_ms",
    "synthesis": "hw.synthesis_energy_ms",
    "energy": "hw.synthesis_energy_ms",
}


def experiment_row(experiment: Span, graph_source: str) -> Dict[str, float]:
    """Per-layer milliseconds of one ``experiment`` span.

    Stages are the experiment's direct children, timed inclusively
    (Algorithm 1's own sub-spans belong to the core layer).
    ``obs.span_coverage`` is the share of the experiment those stages
    account for.
    """
    row: Dict[str, float] = {"flow.experiment_ms": experiment.duration_us / 1e3}
    for stage in experiment.children:
        if stage.name == "simulate":
            key = f"sim.{stage.args.get('system', 'unknown')}_ms"
        else:
            key = _STAGE_OF.get(stage.name, f"other.{stage.name}_ms")
        if key == "fit":
            key = ("static.fit_static_ms" if graph_source == "static"
                   else "profiling.fit_trace_ms")
        row[key] = row.get(key, 0.0) + stage.duration_us / 1e3
    row["core.placement_ms"] = sum(
        s.duration_us for s in experiment.walk() if s.name == "design.placement"
    ) / 1e3
    if experiment.duration_us > 0:
        row["obs.span_coverage"] = 1.0 - experiment.self_us / experiment.duration_us
    return row


def experiment_rows(
    roots: Iterable[Span], source_of: Callable[[Span], str]
) -> List[Dict[str, float]]:
    """One :func:`experiment_row` per ``experiment`` span in the forest."""
    return [
        experiment_row(span, source_of(span))
        for span in all_spans(roots) if span.name == "experiment"
    ]


def median_rows(rows: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per key, the median over the rows that have it."""
    keys = {key for row in rows for key in row}
    return {key: statistics.median(r[key] for r in rows if key in r) for key in keys}


def layer_table(roots: Iterable[Span], total_name: str) -> str:
    """Text table of self time by span name, as a share of ``total_name``.

    Rows are span names (``simulate`` split by system); columns are the
    count, median and total self milliseconds, and the share of the
    summed ``total_name`` spans.
    """
    spans = list(all_spans(roots))
    total = sum(s.duration_us for s in spans if s.name == total_name)
    groups: Dict[str, List[float]] = {}
    for s in spans:
        name = s.name + (f"[{s.args['system']}]" if s.name == "simulate" else "")
        groups.setdefault(name, []).append(s.self_us / 1e3)
    lines = [f"{'span':<28}{'count':>8}{'self p50 ms':>14}{'self total ms':>16}{'share':>8}"]
    for name, selfs in sorted(groups.items(), key=lambda kv: -sum(kv[1])):
        share = sum(selfs) * 1e3 / total if total else 0.0
        lines.append(
            f"{name:<28}{len(selfs):>8}{statistics.median(selfs):>14.4f}"
            f"{sum(selfs):>16.2f}{share:>8.1%}"
        )
    return "\n".join(lines) + "\n"


# -- /metrics ----------------------------------------------------------------


def prometheus_totals(text: str) -> Dict[str, float]:
    """Sum each exposition series over its labels: ``{name: value}``."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name = key.partition("{")[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals
