"""Counters, gauges and timers for the service and obs layers.

No external metrics stack: a registry of named monotonic counters,
last-value gauges and timers (observation lists), with nearest-rank
percentiles and a plain-text snapshot renderer for
``repro sweep --stats``-style output. Everything is in-process and
deterministic — timers record whatever the caller observed, the registry
never reads the clock itself (use :func:`repro.obs.timed` for that).

Labels follow the Prometheus convention: a labelled series is keyed by
``name{k="v",...}`` with label names sorted, so the registry's plain
string keys are already valid exposition identities
(:func:`repro.obs.export.to_prometheus` renders them verbatim).

Concurrency: all mutation goes through one :class:`threading.Lock`, so
callbacks from thread pools (``ProcessPoolExecutor`` delivers results on
arbitrary threads) cannot lose updates. Worker *processes* keep their own
registry and ship :meth:`MetricsRegistry.dump` back for
:meth:`MetricsRegistry.merge` — counters add, timers concatenate, gauges
take the incoming value (latest wins).

Empty-series policy (documented, NaN-free): ``percentile([])`` and every
stat of an unobserved timer return ``0.0`` with ``count == 0`` — callers
that must distinguish "no data" from "zero latency" check the count;
``None``/NaN never appear in snapshots, keeping them JSON/CSV-safe.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..obs.export import escape_label_value

def metric_key(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """Series key: ``name`` or ``name{k="v",...}`` with sorted labels.

    Label values are escaped per the Prometheus exposition format
    (backslash, quote, newline), so a value like a kernel named
    ``a"b`` cannot corrupt the series identity or the exported text.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values``.

    Edge-case policy:

    * ``q`` must lie in ``[0, 100]`` — anything else raises
      :class:`~repro.errors.ConfigurationError`;
    * ``q=0`` returns the minimum, ``q=100`` the maximum;
    * an empty input returns ``0.0`` (never ``NaN``/``None``) — the
      companion ``count`` field is how callers detect "no data".

    The rank ``⌈q·n/100⌉`` is computed in exact rational arithmetic:
    binary floating point cannot represent e.g. ``55/100``, and the
    upward rounding error (``55 * 100 / 100.0 -> 55.000000000000007``)
    would push the ceiling one rank too high exactly at the boundaries
    the nearest-rank definition cares about.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(q) * len(ordered) / 100))
    return ordered[min(rank, len(ordered)) - 1]


def _timer_stats_of(obs: Sequence[float]) -> Dict[str, float]:
    """Stats of one timer's (already copied) observation list."""
    if not obs:
        return {
            "count": 0, "mean_s": 0.0,
            "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0,
        }
    return {
        "count": len(obs),
        "mean_s": sum(obs) / len(obs),
        "p50_s": percentile(obs, 50),
        "p95_s": percentile(obs, 95),
        "p99_s": percentile(obs, 99),
    }


class MetricsRegistry:
    """Named counters, gauges and latency timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, List[float]] = {}

    # -- counters -----------------------------------------------------------
    def incr(
        self, name: str, by: int = 1,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + by

    def counter(
        self, name: str, labels: Optional[Mapping[str, Any]] = None
    ) -> int:
        return self._counters.get(metric_key(name, labels), 0)

    # -- gauges -------------------------------------------------------------
    def gauge(
        self, name: str, value: float,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Set a last-value-wins measurement (utilization, queue depth)."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def gauge_value(
        self, name: str, labels: Optional[Mapping[str, Any]] = None
    ) -> float:
        return self._gauges.get(metric_key(name, labels), 0.0)

    # -- timers -------------------------------------------------------------
    def observe(
        self, name: str, seconds: float,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._timers.setdefault(key, []).append(seconds)

    def timer_stats(
        self, name: str, labels: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, float]:
        """Count/mean/p50/p95/p99; all-zero (count 0) when unobserved."""
        with self._lock:
            obs = list(self._timers.get(metric_key(name, labels), ()))
        return _timer_stats_of(obs)

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time view: counters, gauges and timer stats.

        Everything is *copied under one lock acquisition* — including
        the raw timer observation lists, whose stats are then computed
        from the copies. The historical version re-read the live lists
        after releasing the lock, so a concurrent ``observe`` could
        interleave half-updated series into one scrape (and mutate a
        list mid-``sorted``); the concurrent-scrape regression test in
        ``tests/test_runtime_obs.py`` pins the fix.
        """
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            timers = {
                name: list(obs)
                for name, obs in sorted(self._timers.items())
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": {
                name: _timer_stats_of(obs) for name, obs in timers.items()
            },
        }

    def dump(self) -> Dict[str, Any]:
        """Raw, lossless state for cross-process :meth:`merge` transport."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {k: list(v) for k, v in self._timers.items()},
            }

    def merge(self, other: Mapping[str, Any]) -> None:
        """Aggregate another registry's :meth:`dump` into this one.

        Counters add; timers concatenate raw observations (so
        percentiles stay exact); gauges take the incoming value.
        """
        with self._lock:
            for key, value in other.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in other.get("gauges", {}).items():
                self._gauges[key] = float(value)
            for key, obs in other.get("timers", {}).items():
                self._timers.setdefault(key, []).extend(obs)

    def render(self, extra: Tuple[Tuple[str, Any], ...] = ()) -> str:
        """Human-readable snapshot; ``extra`` rows are appended verbatim."""
        lines = ["service metrics"]
        snap = self.snapshot()
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<28} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:<28} {value:.4f}")
        for name, stats in snap["timers"].items():
            lines.append(
                f"  {name:<28} n={stats['count']}"
                f" mean={stats['mean_s'] * 1e3:.2f}ms"
                f" p50={stats['p50_s'] * 1e3:.2f}ms"
                f" p95={stats['p95_s'] * 1e3:.2f}ms"
                f" p99={stats['p99_s'] * 1e3:.2f}ms"
            )
        for name, value in extra:
            if isinstance(value, float):
                lines.append(f"  {name:<28} {value:.4f}")
            else:
                lines.append(f"  {name:<28} {value}")
        return "\n".join(lines)
