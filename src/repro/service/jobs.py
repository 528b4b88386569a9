"""Immutable design-job specifications with content-addressed identity.

A :class:`DesignJob` captures *everything* that determines the outcome
of one profile→design→simulate pipeline run: the application, workload
scale, RNG seed, the hardware :class:`~repro.sim.systems.SystemParams`,
the designer toggles, and whether simulation is requested. Because the
flow is deterministic in these inputs, two jobs with the same
:meth:`~DesignJob.fingerprint` are guaranteed to produce the same
result — that is what makes the service cache and duplicate-job
coalescing sound.

The fingerprint is a SHA-256 over the job's canonical JSON document
(:func:`repro.io.canonical_json`), stamped with the library-wide
:data:`repro.io.FORMAT_VERSION` so cached results are invalidated
whenever the serialization format (and hence potentially the result
shape) moves.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Union

from .. import io as reproio
from ..apps.base import require_int
from ..apps.registry import APP_NAMES
from ..errors import ConfigurationError
from ..flow import DESIGN_TOGGLE_FIELDS, GRAPH_SOURCES
from ..sim.systems import SystemParams

#: Document kind stamped into serialized jobs.
JOB_KIND = "design-job"


@dataclass(frozen=True)
class DesignJob:
    """One unit of work for the design service."""

    app: str
    scale: int = 1
    seed: int = 2014
    params: SystemParams = SystemParams()
    simulate: bool = True
    #: Designer toggle overrides, stored as sorted ``(name, value)``
    #: pairs so the job stays hashable; accepts a mapping on construction.
    design: Tuple[Tuple[str, Any], ...] = ()
    #: How the communication graph is derived (``repro.flow.GRAPH_SOURCES``):
    #: a profiled trace or the static analyzer. Part of the fingerprint —
    #: the two sources legitimately differ on data-dependent edges.
    graph_source: str = "trace"

    def __post_init__(self) -> None:
        if self.app not in APP_NAMES:
            raise ConfigurationError(
                f"unknown application {self.app!r} (have: {list(APP_NAMES)})"
            )
        object.__setattr__(self, "scale", require_int("scale", self.scale, 1))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        if self.graph_source not in GRAPH_SOURCES:
            raise ConfigurationError(
                f"unknown graph_source {self.graph_source!r} "
                f"(allowed: {', '.join(GRAPH_SOURCES)})"
            )
        design = self.design
        if isinstance(design, Mapping):
            design = tuple(sorted(design.items()))
            object.__setattr__(self, "design", design)
        else:
            object.__setattr__(self, "design", tuple(sorted(design)))
        unknown = {k for k, _ in self.design} - DESIGN_TOGGLE_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown design toggles: {sorted(unknown)} "
                f"(allowed: {sorted(DESIGN_TOGGLE_FIELDS)})"
            )

    @property
    def design_overrides(self) -> Dict[str, Any]:
        """The designer toggles as a plain mapping."""
        return dict(self.design)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize with the standard ``kind``/``version`` envelope."""
        return {
            "kind": JOB_KIND,
            "version": reproio.FORMAT_VERSION,
            "app": self.app,
            "scale": self.scale,
            "seed": self.seed,
            "simulate": self.simulate,
            "graph_source": self.graph_source,
            "params": dataclasses.asdict(self.params),
            "design": {k: v for k, v in self.design},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DesignJob":
        """Deserialize; validates through the normal constructor."""
        reproio.validate_document(data, JOB_KIND)
        return cls(
            app=data["app"],
            scale=data["scale"],
            seed=data["seed"],
            simulate=data["simulate"],
            params=SystemParams(**data["params"]),
            design=tuple(sorted(data["design"].items())),
            graph_source=data.get("graph_source", "trace"),
        )

    def fingerprint(self) -> str:
        """Stable content hash identifying this job (and its result)."""
        doc = reproio.canonical_json(self.to_dict())
        return hashlib.sha256(doc.encode("ascii")).hexdigest()


def job_for_point(
    app: str,
    scale: int,
    seed: int,
    params: Union[SystemParams, Mapping[str, Any]],
    simulate: bool,
) -> DesignJob:
    """Build a job from raw sweep-grid coordinates."""
    if not isinstance(params, SystemParams):
        params = SystemParams(**dict(params))
    return DesignJob(
        app=app, scale=scale, seed=seed, params=params, simulate=simulate
    )
