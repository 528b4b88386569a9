"""Metric exporters: Prometheus text exposition and JSON snapshots.

Both operate on the :meth:`repro.service.metrics.MetricsRegistry.snapshot`
shape, so the service facade, the sweep CLI, the simulator statistics
publisher and the benchmark harness all export through one schema.
Counters and gauges map one-to-one; a timer becomes a ``summary`` with
p50/p95/p99 quantiles, ``_count`` and ``_sum``.
Unknown top-level snapshot keys (``cache``, ``last_mode``) are folded in
where they map naturally and preserved verbatim in JSON output.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, Mapping, Tuple, Union

#: Prefix stamped on every exposition metric name.
PROM_PREFIX = "repro_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def escape_label_value(value: object) -> str:
    """Escape a label *value* per the Prometheus exposition format.

    Backslash, double quote and newline are the three characters the
    format reserves inside quoted label values; anything else passes
    through. Apply this before interpolating a value into ``k="v"`` —
    the label *name* side must instead be sanitized to the allowed
    identifier characters.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _split_key(key: str) -> Tuple[str, str]:
    """Split a registry series key into (name, label suffix)."""
    if "{" in key:
        name, _, rest = key.partition("{")
        return name, "{" + rest
    return key, ""


def _prom_name(name: str) -> str:
    return PROM_PREFIX + _NAME_RE.sub("_", name)


def _with_label(suffix: str, extra: str) -> str:
    """Insert an extra ``k="v"`` pair into a label suffix."""
    if not suffix:
        return "{" + extra + "}"
    return suffix[:-1] + "," + extra + "}"


def to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot as Prometheus text exposition."""
    lines = []
    typed = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, suffix = _split_key(key)
        pname = _prom_name(name)
        declare(pname, "counter")
        lines.append(f"{pname}{suffix} {value}")

    for key, value in snapshot.get("gauges", {}).items():
        name, suffix = _split_key(key)
        pname = _prom_name(name)
        declare(pname, "gauge")
        lines.append(f"{pname}{suffix} {value}")

    for key, stats in snapshot.get("timers", {}).items():
        name, suffix = _split_key(key)
        pname = _prom_name(name) + "_seconds"
        declare(pname, "summary")
        for q, field_name in (("0.5", "p50_s"), ("0.95", "p95_s"), ("0.99", "p99_s")):
            qsuffix = _with_label(suffix, f'quantile="{q}"')
            lines.append(f"{pname}{qsuffix} {stats[field_name]}")
        lines.append(f"{pname}_count{suffix} {stats['count']}")
        lines.append(f"{pname}_sum{suffix} {stats['mean_s'] * stats['count']}")

    return "\n".join(lines) + "\n"


def to_json_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Stable (sorted-key) JSON form of a snapshot."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def write_metrics(
    snapshot: Mapping[str, Any], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write a snapshot to ``path``; ``.prom`` selects exposition format,
    anything else gets the JSON form."""
    out = pathlib.Path(path)
    if out.suffix == ".prom":
        out.write_text(to_prometheus(snapshot))
    else:
        out.write_text(to_json_snapshot(snapshot))
    return out
