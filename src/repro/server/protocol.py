"""Wire schemas of the networked design service.

One module owns every JSON document that crosses the HTTP boundary, in
both directions:

* requests — ``parse_design_request`` / ``parse_sweep_request`` turn
  client bodies into the same :class:`~repro.service.jobs.DesignJob` /
  :class:`~repro.sweep.SweepGrid` objects the in-process API uses, so
  validation is the library's own (unknown apps, bad scales and unknown
  ``SystemParams`` fields are rejected by the constructors, not by a
  parallel schema);
* responses — ``design_response`` / ``sweep_response`` / ``job_response``
  / ``error_body`` build the versioned ``kind`` envelopes, and
  :func:`encode` renders them with :func:`repro.io.canonical_json` so a
  served result is **byte-identical** to the same document produced
  in-process (sorted keys, no incidental whitespace).

The result payload inside every response is the flat
:func:`repro.flow.result_summary` dict — the exact object the service
cache stores — which is what makes the server's results comparable
byte-for-byte against :func:`repro.flow.run_experiment`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ProtocolError
from ..io import FORMAT_VERSION, canonical_json
from ..service.api import JobResult
from ..service.jobs import DesignJob
from ..sim.systems import SystemParams
from ..sweep import SweepGrid, SweepPoint

#: Document kinds stamped on server responses.
DESIGN_RESPONSE_KIND = "design-response"
SWEEP_RESPONSE_KIND = "sweep-response"
JOB_RESPONSE_KIND = "job-response"
DEBUG_RESPONSE_KIND = "debug-response"
ERROR_KIND = "error-response"

#: Request-body keys each endpoint accepts (anything else is a 400 —
#: silently ignoring a typoed key would mask a mis-specified job).
_DESIGN_KEYS = frozenset({"app", "scale", "seed", "simulate", "params",
                          "design", "graph_source"})
_SWEEP_KEYS = frozenset({"apps", "scales", "param_grid", "simulate",
                         "seed"})


def decode_body(raw: bytes) -> Dict[str, Any]:
    """Parse a request body as one JSON object."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}",
                            status=400) from exc
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object",
                            status=400)
    return doc


def _reject_unknown(doc: Mapping[str, Any], allowed: frozenset) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown request fields: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})",
            status=400,
        )


def _json_int(value: Any, name: str) -> int:
    """A JSON integer field; a bool or a non-integral number is a 400.

    ``int()`` would truncate ``1.7`` and turn ``true`` into 1, designing
    a job nobody asked for. An integral float (``2.0``) is accepted.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"'{name}' must be an integer, got {value!r}",
                            status=400)
    return value


def parse_design_request(doc: Mapping[str, Any]) -> DesignJob:
    """Build a :class:`DesignJob` from a ``POST /v1/design`` body."""
    _reject_unknown(doc, _DESIGN_KEYS)
    if "app" not in doc:
        raise ProtocolError("design request needs an 'app' field",
                            status=400)
    params = doc.get("params") or {}
    if not isinstance(params, Mapping):
        raise ProtocolError("'params' must be an object", status=400)
    design = doc.get("design") or {}
    if not isinstance(design, Mapping):
        raise ProtocolError("'design' must be an object", status=400)
    try:
        return DesignJob(
            app=doc["app"],
            scale=_json_int(doc.get("scale", 1), "scale"),
            seed=_json_int(doc.get("seed", 2014), "seed"),
            params=SystemParams(**dict(params)),
            simulate=bool(doc.get("simulate", True)),
            design=dict(design),
            graph_source=str(doc.get("graph_source", "trace")),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid design request: {exc}",
                            status=400) from exc


def parse_sweep_request(
    doc: Mapping[str, Any], max_points: int = 4096
) -> SweepGrid:
    """Build a :class:`SweepGrid` from a ``POST /v1/sweep`` body."""
    _reject_unknown(doc, _SWEEP_KEYS)
    if "apps" not in doc:
        raise ProtocolError("sweep request needs an 'apps' list",
                            status=400)
    param_grid = doc.get("param_grid") or {}
    if not isinstance(param_grid, Mapping):
        raise ProtocolError("'param_grid' must be an object", status=400)
    try:
        grid = SweepGrid(
            apps=list(doc["apps"]),
            scales=[_json_int(s, "scales") for s in doc.get("scales", [1])],
            param_grid={k: list(v) for k, v in param_grid.items()},
            simulate=bool(doc.get("simulate", False)),
            seed=_json_int(doc.get("seed", 2014), "seed"),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid sweep request: {exc}",
                            status=400) from exc
    if grid.size() > max_points:
        raise ProtocolError(
            f"sweep grid has {grid.size()} points, over the server's "
            f"limit of {max_points}",
            status=413,
        )
    return grid


# -- responses --------------------------------------------------------------
#
# Every envelope echoes the request's W3C trace id (``trace_id``) so a
# caller can join its response to server spans, the runtime event log,
# and the exemplar labels on /metrics without any out-of-band state.
def design_response(result: JobResult, trace_id: str = "") -> Dict[str, Any]:
    """The ``POST /v1/design`` success body."""
    return {
        "kind": DESIGN_RESPONSE_KIND,
        "version": FORMAT_VERSION,
        "app": result.job.app,
        "fingerprint": result.fingerprint,
        "cached": result.cached,
        "coalesced": result.coalesced,
        "summary": result.summary,
        "trace_id": trace_id,
    }


def point_record(grid: SweepGrid, result: JobResult) -> Dict[str, Any]:
    """One sweep point as its flat CSV-shaped record."""
    return SweepPoint(
        app=result.job.app,
        scale=result.job.scale,
        params=result.job.params,
        seed=grid.seed,
        summary=result.summary,
    ).record()


def sweep_response(
    grid: SweepGrid, results: List[JobResult], trace_id: str = ""
) -> Dict[str, Any]:
    """The ``POST /v1/sweep`` success body (all points at once)."""
    return {
        "kind": SWEEP_RESPONSE_KIND,
        "version": FORMAT_VERSION,
        "points": [point_record(grid, r) for r in results],
        "count": len(results),
        "trace_id": trace_id,
    }


def job_response(
    fingerprint: str, summary: Mapping[str, Any], trace_id: str = ""
) -> Dict[str, Any]:
    """The ``GET /v1/jobs/<fingerprint>`` success body."""
    return {
        "kind": JOB_RESPONSE_KIND,
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "summary": dict(summary),
        "trace_id": trace_id,
    }


def debug_response(
    debug: Mapping[str, Any], trace_id: str = ""
) -> Dict[str, Any]:
    """The ``GET /v1/debug`` introspection envelope.

    ``debug`` is the live-state document assembled by
    :meth:`repro.server.app.DesignServer` — in-flight requests (with
    age and trace id), admission/queue depths, in-flight executor calls,
    per-tenant bucket levels, cache/coalescing counters, pool health,
    and the tail of the runtime event log. The server builds it on its
    own event loop thread, so the view is internally consistent.
    """
    return {
        "kind": DEBUG_RESPONSE_KIND,
        "version": FORMAT_VERSION,
        "debug": dict(debug),
        "trace_id": trace_id,
    }


def error_body(
    status: int, message: str, retry_after_s: Optional[float] = None,
    trace_id: str = "",
) -> Dict[str, Any]:
    """The JSON error envelope every non-2xx response carries."""
    doc: Dict[str, Any] = {
        "kind": ERROR_KIND,
        "version": FORMAT_VERSION,
        "status": status,
        "error": message,
        "trace_id": trace_id,
    }
    if retry_after_s is not None:
        doc["retry_after_s"] = retry_after_s
    return doc


def encode(doc: Mapping[str, Any]) -> bytes:
    """Canonical (sorted-key, compact) JSON bytes of a response body."""
    return canonical_json(dict(doc)).encode("utf-8")
