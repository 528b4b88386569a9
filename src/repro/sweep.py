"""Parameter sweeps over the experiment flow, with CSV export.

Research usage of this reproduction is rarely one run — it is "how does
the result change with bus width / θ / workload scale?". This module
runs :func:`repro.flow.run_experiment` over a parameter grid and
collects flat records ready for CSV/pandas, so studies do not each
reinvent the loop.

A sweep point varies any of: the application, the workload ``scale``,
and the :class:`~repro.sim.systems.SystemParams` fields (bus width,
burst size, NoC link width, transport, QoS). Analytic results are
always collected; simulation can be switched off for cheap wide grids.

Evaluation is delegated to :class:`repro.service.DesignService`, so
sweeps get parallel execution (``jobs=N``), cross-run result caching
(``cache_dir=...``), and duplicate-point coalescing for free; the CSV
output is byte-identical regardless of worker count or cache state.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .errors import ConfigurationError
from .flow import SUMMARY_FIELDS, ExperimentResult, result_summary

from .sim.systems import SystemParams

#: Fields a grid may vary (everything else is rejected loudly).
_SWEEPABLE_PARAMS = {f.name for f in dataclasses.fields(SystemParams)}

#: Declaration-order SystemParams field names — every one is emitted in
#: each CSV row so rows are self-describing for any grid.
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point."""

    app: str
    scale: int
    params: SystemParams
    #: Full result; ``None`` when the point was served from the service
    #: cache or computed in a worker process (summary-only transports).
    result: Optional[ExperimentResult] = None
    seed: int = 2014
    #: Flat result summary (:func:`repro.flow.result_summary` shape).
    summary: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.result is None and self.summary is None:
            raise ConfigurationError(
                "a SweepPoint needs a result or a summary"
            )

    def record(self) -> Dict[str, Any]:
        """Flatten into one CSV-ready row (coordinates + summary)."""
        row: Dict[str, Any] = {
            "app": self.app,
            "scale": self.scale,
            "seed": self.seed,
        }
        for name in _PARAM_FIELDS:
            row[name] = getattr(self.params, name)
        summary = (
            self.summary
            if self.summary is not None
            else result_summary(self.result)
        )
        # Re-impose the canonical column order: a summary that has been
        # through a JSON round-trip (cache, worker process) comes back
        # alphabetized, and CSV headers must not depend on that.
        for name in SUMMARY_FIELDS:
            if name in summary:
                row[name] = summary[name]
        for name, value in summary.items():
            if name not in row:
                row[name] = value
        return row


@dataclass
class SweepGrid:
    """Cartesian grid of sweep inputs."""

    apps: Sequence[str]
    scales: Sequence[int] = (1,)
    param_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    simulate: bool = False
    seed: int = 2014

    def __post_init__(self) -> None:
        if not self.apps:
            raise ConfigurationError("sweep needs at least one application")
        unknown = set(self.param_grid) - _SWEEPABLE_PARAMS
        if unknown:
            raise ConfigurationError(
                f"unknown SystemParams fields in grid: {sorted(unknown)}"
            )

    def points(self) -> Iterable[Dict[str, Any]]:
        """Yield raw grid coordinates (before evaluation)."""
        keys = list(self.param_grid)
        values = [self.param_grid[k] for k in keys]
        for app in self.apps:
            for scale in self.scales:
                for combo in itertools.product(*values) if keys else [()]:
                    yield {
                        "app": app,
                        "scale": scale,
                        "params": dict(zip(keys, combo)),
                    }

    def size(self) -> int:
        """Number of grid points."""
        n = len(self.apps) * len(self.scales)
        for v in self.param_grid.values():
            n *= len(v)
        return n


def run_sweep(
    grid: SweepGrid,
    *,
    jobs: int = 1,
    cache_dir: Optional[Union[str, pathlib.Path]] = None,
    service: Optional["DesignService"] = None,
) -> List[SweepPoint]:
    """Evaluate every grid point, deterministic order.

    Execution goes through the design service: ``jobs > 1`` fans points
    out over worker processes, ``cache_dir`` persists results across
    runs, and overlapping grids deduplicate automatically. With the
    defaults (one in-process worker, no disk cache) behaviour matches
    the historical serial path — including full
    :attr:`SweepPoint.result` objects on every point.
    """
    from .service import DesignService, job_for_point

    if service is None:
        service = DesignService(jobs=jobs, cache_dir=cache_dir)
    coords = list(grid.points())
    specs = [
        job_for_point(
            app=coord["app"],
            scale=coord["scale"],
            seed=grid.seed,
            params=coord["params"],
            simulate=grid.simulate,
        )
        for coord in coords
    ]
    return [
        SweepPoint(
            app=coord["app"],
            scale=coord["scale"],
            params=jr.job.params,
            result=jr.result,
            seed=grid.seed,
            summary=jr.summary,
        )
        for coord, jr in zip(coords, service.submit_many(specs))
    ]


def to_csv(
    points: Sequence[SweepPoint],
    path: Optional[Union[str, pathlib.Path]] = None,
) -> str:
    """Render sweep records as CSV; optionally also write to ``path``."""
    if not points:
        raise ConfigurationError("no sweep points to export")
    records = [p.record() for p in points]
    fieldnames = list(records[0])
    for r in records[1:]:
        for k in r:
            if k not in fieldnames:
                fieldnames.append(k)
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=fieldnames, restval="", lineterminator="\n"
    )
    writer.writeheader()
    for r in records:
        writer.writerow(r)
    text = buf.getvalue()
    if path is not None:
        pathlib.Path(path).write_text(text)
    return text
