"""Bench-history persistence and regression gating for ``repro bench``.

``BENCH_repro.json`` is one snapshot; this module gives it a memory.
Each bench run appends one compact JSONL entry (``bench-history-entry``)
to ``BENCH_history.jsonl`` — the flattened numeric metrics of the
report, dotted like ``apps.fluid.sim_baseline_s`` — and
``repro bench --compare`` diffs a fresh report against the **median**
of that history before the new entry is appended.

The median, not the latest entry, is the baseline: a single lucky or
unlucky historical run must not move the gate. And only *timing*
metrics (dotted names ending ``_s`` or ``_ms``) are gated, lower is
better, with a small absolute noise floor so sub-tenth-of-a-millisecond
jitter on trivial timings can't fail CI. Ratio metrics like
``cache_speedup`` and ``profiler_overhead`` are
first-class in the trend table — formatted as multipliers with their
own ``ratio`` verdict, and a speedup that *falls* against its baseline
is called out — but they never gate: they are already ratios of gated
quantities, so gating them would double-count a timing regression.

Everything here is pure data-in/data-out (the CLI owns printing and
exit codes), which is what makes the 2×-slowdown injection test in
``tests/test_trends.py`` possible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ...io import FORMAT_VERSION

__all__ = [
    "HISTORY_KIND",
    "MetricDelta",
    "append_history",
    "compare_bench",
    "flatten_bench",
    "load_history",
    "regressions",
    "render_trend_table",
    "sparkline",
]

#: Document kind of one BENCH_history.jsonl line.
HISTORY_KIND = "bench-history-entry"

#: Default failure threshold: current > threshold x median(history).
DEFAULT_THRESHOLD = 1.5

#: Absolute noise floors per timing suffix — baselines below these are
#: too small to gate meaningfully (scheduler jitter dominates).
_NOISE_FLOORS: Mapping[str, float] = {"_s": 5e-5, "_ms": 0.05}

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def flatten_bench(report: Mapping[str, object]) -> Dict[str, float]:
    """Flatten a bench report's numeric leaves into dotted keys.

    ``apps.<name>.<metric>``, ``service.<metric>`` and (when a loadtest
    has been merged in) ``server.<metric>``; envelope fields (kind,
    version, schema, python, ...) are dropped. Booleans are excluded —
    they are numbers to ``isinstance`` but not to a trend line.
    """
    flat: Dict[str, float] = {}

    def _walk(prefix: str, node: object) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            if prefix:
                flat[prefix] = float(node)
            return
        if isinstance(node, Mapping):
            for key, value in node.items():
                _walk(f"{prefix}.{key}" if prefix else str(key), value)

    for section in ("apps", "service", "server"):
        value = report.get(section) if isinstance(report, Mapping) else None
        if isinstance(value, Mapping):
            _walk(section, value)
    return flat


def timing_suffix(name: str) -> Optional[str]:
    """``"_s"`` / ``"_ms"`` when ``name`` is a gated timing metric."""
    leaf = name.rsplit(".", 1)[-1]
    for suffix in ("_ms", "_s"):
        if leaf.endswith(suffix):
            return suffix
    return None


#: Leaf suffixes of displayed-but-never-gated multiplier metrics.
RATIO_SUFFIXES = ("_speedup", "_overhead", "_ratio")


def ratio_metric(name: str) -> bool:
    """Whether ``name`` is a ratio metric (shown as ``Nx``, not gated)."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf.endswith(RATIO_SUFFIXES)


def history_entry(report: Mapping[str, object],
                  ts: Optional[float] = None) -> Dict[str, object]:
    """One JSONL line's document for ``report``."""
    return {
        "kind": HISTORY_KIND,
        "version": FORMAT_VERSION,
        "ts": time.time() if ts is None else ts,
        "python": report.get("python", ""),
        "metrics": flatten_bench(report),
    }


def append_history(report: Mapping[str, object],
                   path: Union[str, Path],
                   ts: Optional[float] = None) -> Dict[str, object]:
    """Append ``report`` to the history file; returns the entry written."""
    entry = history_entry(report, ts=ts)
    target = Path(path)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return entry


def load_history(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a history file, oldest first.

    Tolerant of a missing file (no history yet → empty list) but loud
    about a corrupt one: a line that is not valid JSON or not a
    ``bench-history-entry`` raises ``ValueError``, because silently
    skipping history would silently weaken the gate.
    """
    target = Path(path)
    if not target.exists():
        return []
    entries: List[Dict[str, object]] = []
    for lineno, line in enumerate(
            target.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ValueError(
                f"{target}:{lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(doc, dict) or doc.get("kind") != HISTORY_KIND:
            raise ValueError(
                f"{target}:{lineno}: expected a {HISTORY_KIND!r} document"
            )
        entries.append(doc)
    return entries


@dataclass(frozen=True)
class MetricDelta:
    """One metric's position against its history."""

    name: str
    current: float
    baseline: Optional[float]   # median of history; None when no history
    ratio: Optional[float]      # current / baseline
    history: Tuple[float, ...]  # prior values, oldest first
    gated: bool                 # timing metric above the noise floor?
    regressed: bool             # gated and ratio > threshold


def compare_bench(
    report: Mapping[str, object],
    history: List[Dict[str, object]],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[MetricDelta]:
    """Diff ``report`` against the median of ``history`` per metric.

    Every metric present in the current report yields a delta (sorted
    by name); metrics that exist only in history are ignored — a
    *removed* metric is a schema change for the R4 digest to catch,
    not a perf regression.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    current = flatten_bench(report)
    series: Dict[str, List[float]] = {}
    for entry in history:
        metrics = entry.get("metrics")
        if not isinstance(metrics, Mapping):
            continue
        for name, value in metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.setdefault(str(name), []).append(float(value))

    deltas: List[MetricDelta] = []
    for name in sorted(current):
        value = current[name]
        past = tuple(series.get(name, ()))
        baseline = median(past) if past else None
        ratio = (value / baseline
                 if baseline is not None and baseline > 0 else None)
        suffix = timing_suffix(name)
        gated = (
            suffix is not None
            and baseline is not None
            and baseline >= _NOISE_FLOORS[suffix]
        )
        regressed = bool(gated and ratio is not None and ratio > threshold)
        deltas.append(MetricDelta(
            name=name, current=value, baseline=baseline, ratio=ratio,
            history=past, gated=gated, regressed=regressed,
        ))
    return deltas


def regressions(deltas: List[MetricDelta]) -> List[MetricDelta]:
    """The subset of ``deltas`` that should fail the gate."""
    return [d for d in deltas if d.regressed]


def sparkline(values: Tuple[float, ...]) -> str:
    """Unicode block sparkline of ``values`` (oldest left)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_BLOCKS[0] * len(values)
    span = high - low
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(top, int((v - low) / span * top + 0.5))]
        for v in values
    )


def _fmt(name: str, value: Optional[float]) -> str:
    if value is None:
        return "—"
    if timing_suffix(name) == "_s":
        return f"{value * 1e3:.3f}ms"
    if timing_suffix(name) == "_ms":
        return f"{value:.3f}ms"
    if ratio_metric(name):
        return f"{value:.2f}x"
    return f"{value:.3g}"


def render_trend_table(deltas: List[MetricDelta],
                       threshold: float = DEFAULT_THRESHOLD) -> str:
    """ASCII trend table: baseline, current, ratio, sparkline, verdict."""
    width = max([len(d.name) for d in deltas] + [6])
    lines = [
        f"bench trends vs median of history "
        f"(gate: timing > {threshold:.2f}x baseline)",
        f"  {'metric':<{width}}  {'baseline':>12}  {'current':>12}"
        f"  {'ratio':>7}  {'trend':<10}  verdict",
    ]
    for d in deltas:
        trend = sparkline(d.history + (d.current,))
        if d.regressed:
            verdict = "REGRESSED"
        elif ratio_metric(d.name):
            # Never gated, but a speedup falling below its historical
            # baseline is exactly the throughput drift the table exists
            # to surface — name it, don't bury it in "info".
            dropped = (
                d.name.endswith("_speedup")
                and d.ratio is not None
                and d.ratio < 1.0 / threshold
            )
            verdict = "ratio (dropped)" if dropped else "ratio"
        elif not d.gated:
            verdict = "info"
        else:
            verdict = "ok"
        ratio = f"{d.ratio:.2f}x" if d.ratio is not None else "—"
        lines.append(
            f"  {d.name:<{width}}  {_fmt(d.name, d.baseline):>12}"
            f"  {_fmt(d.name, d.current):>12}  {ratio:>7}"
            f"  {trend:<10}  {verdict}"
        )
    return "\n".join(lines)
