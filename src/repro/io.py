"""JSON serialization of profiles, communication graphs and plans.

Profiling a large application or re-running the designer is cheap here,
but in the workflow the paper targets these artifacts cross tool
boundaries (QUAD output → design tool → system builder), so the library
provides stable, versioned JSON round-trips:

* :func:`profile_to_dict` / :func:`profile_from_dict`
* :func:`graph_to_dict` / :func:`graph_from_dict`
* :func:`plan_to_dict` / :func:`plan_from_dict`

plus :func:`save_json` / :func:`load_json` file helpers. All
``*_from_dict`` functions validate through the normal constructors, so a
hand-edited file cannot smuggle in inconsistent state.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
from typing import Any, Dict, Union

from .core.commgraph import CommGraph
from .core.duplication import DuplicationDecision
from .core.kernel import KernelSpec
from .core.parallel import PipelineCase, PipelineDecision
from .core.placement import MeshPlacement
from .core.plan import InterconnectPlan, KernelMapping, NocPlan
from .core.sharing import SharedMemoryLink
from .core.topology import KernelAttach, MemoryAttach, ReceiveClass, SendClass
from .errors import ConfigurationError
from .hw.resources import ResourceCost
from .profiling.quad import CommunicationProfile, FunctionStats, ProfileEdge

#: Format version stamped into every serialized artifact.
FORMAT_VERSION = 1


def _check_version(data: Dict[str, Any], kind: str) -> None:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported {kind} format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if data.get("kind") != kind:
        raise ConfigurationError(
            f"expected a {kind!r} document, got {data.get('kind')!r}"
        )


def validate_document(data: Dict[str, Any], kind: str) -> None:
    """Check a serialized artifact's ``kind``/``version`` envelope.

    Raises :class:`~repro.errors.ConfigurationError` on mismatch — the
    service cache uses this to invalidate stale on-disk entries when
    :data:`FORMAT_VERSION` moves.
    """
    _check_version(data, kind)


def canonical_json(data: Dict[str, Any]) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace).

    This is the byte stream content-addressed fingerprints hash over, so
    it must stay stable across Python versions and dict insertion order.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


# -- profiles ---------------------------------------------------------------


def profile_to_dict(profile: CommunicationProfile) -> Dict[str, Any]:
    """Serialize a communication profile."""
    return {
        "kind": "profile",
        "version": FORMAT_VERSION,
        "entry": profile.entry_name,
        "edges": [
            {"producer": e.producer, "consumer": e.consumer,
             "bytes": e.bytes, "umas": e.umas}
            for e in profile.edges
        ],
        "functions": [
            {"name": f.name, "calls": f.calls,
             "bytes_loaded": f.bytes_loaded,
             "bytes_stored": f.bytes_stored, "work": f.work}
            for f in profile.functions
        ],
    }


def profile_from_dict(data: Dict[str, Any]) -> CommunicationProfile:
    """Deserialize a communication profile."""
    _check_version(data, "profile")
    return CommunicationProfile(
        (ProfileEdge(**e) for e in data["edges"]),
        (FunctionStats(**f) for f in data["functions"]),
        entry_name=data["entry"],
    )


# -- kernel specs and graphs -----------------------------------------------


def _spec_to_dict(spec: KernelSpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "tau_cycles": spec.tau_cycles,
        "sw_cycles": spec.sw_cycles,
        "parallelizable": spec.parallelizable,
        "streams_host_io": spec.streams_host_io,
        "streams_kernel_input": spec.streams_kernel_input,
        "luts": spec.resources.luts,
        "regs": spec.resources.regs,
        "local_memory_bytes": spec.local_memory_bytes,
    }


def _spec_from_dict(data: Dict[str, Any]) -> KernelSpec:
    return KernelSpec(
        name=data["name"],
        tau_cycles=data["tau_cycles"],
        sw_cycles=data["sw_cycles"],
        parallelizable=data["parallelizable"],
        streams_host_io=data["streams_host_io"],
        streams_kernel_input=data["streams_kernel_input"],
        resources=ResourceCost(data["luts"], data["regs"]),
        local_memory_bytes=data["local_memory_bytes"],
    )


def graph_to_dict(graph: CommGraph) -> Dict[str, Any]:
    """Serialize a communication graph (with its kernel specs)."""
    return {
        "kind": "commgraph",
        "version": FORMAT_VERSION,
        "kernels": [_spec_to_dict(graph.kernel(k)) for k in graph.kernel_names()],
        "kk_edges": [
            {"producer": p, "consumer": c, "bytes": b}
            for (p, c), b in graph.kk_edges.items()
        ],
        "host_in": dict(graph.host_in),
        "host_out": dict(graph.host_out),
    }


def graph_from_dict(data: Dict[str, Any]) -> CommGraph:
    """Deserialize a communication graph."""
    _check_version(data, "commgraph")
    specs = [_spec_from_dict(s) for s in data["kernels"]]
    return CommGraph(
        kernels={s.name: s for s in specs},
        kk_edges={
            (e["producer"], e["consumer"]): e["bytes"]
            for e in data["kk_edges"]
        },
        host_in=dict(data["host_in"]),
        host_out=dict(data["host_out"]),
    )


# -- plans ---------------------------------------------------------------------


def plan_to_dict(plan: InterconnectPlan) -> Dict[str, Any]:
    """Serialize an interconnect plan (including its graph)."""
    noc = None
    if plan.noc is not None:
        noc = {
            "width": plan.noc.placement.width,
            "height": plan.noc.placement.height,
            "torus": plan.noc.placement.torus,
            "positions": {
                name: list(coord)
                for name, coord in plan.noc.placement.positions.items()
            },
            "kernel_nodes": list(plan.noc.kernel_nodes),
            "memory_nodes": list(plan.noc.memory_nodes),
            "edges": [
                {"producer": p, "consumer": c, "bytes": b}
                for p, c, b in plan.noc.edges
            ],
        }
    return {
        "kind": "plan",
        "version": FORMAT_VERSION,
        "app": plan.app,
        "graph": graph_to_dict(plan.graph),
        "duplications": [
            {"kernel": d.kernel, "delta_dp_seconds": d.delta_dp_seconds,
             "applied": d.applied, "reason": d.reason}
            for d in plan.duplications
        ],
        "sharing": [
            {"producer": l.producer, "consumer": l.consumer,
             "bytes": l.bytes, "crossbar": l.crossbar}
            for l in plan.sharing
        ],
        "mappings": [
            {"kernel": m.kernel, "receive": m.receive.name,
             "send": m.send.name, "attach_kernel": m.attach_kernel.name,
             "attach_memory": m.attach_memory.name}
            for m in plan.mappings.values()
        ],
        "noc": noc,
        "pipeline": [
            {"case": d.case.value, "kernel": d.kernel,
             "consumer": d.consumer, "delta_seconds": d.delta_seconds,
             "applied": d.applied, "reason": d.reason}
            for d in plan.pipeline
        ],
    }


def plan_from_dict(data: Dict[str, Any]) -> InterconnectPlan:
    """Deserialize an interconnect plan."""
    _check_version(data, "plan")
    graph = graph_from_dict(data["graph"])
    noc = None
    if data["noc"] is not None:
        d = data["noc"]
        noc = NocPlan(
            placement=MeshPlacement(
                width=d["width"],
                height=d["height"],
                positions={
                    name: tuple(coord) for name, coord in d["positions"].items()
                },
                torus=d.get("torus", False),
            ),
            kernel_nodes=tuple(d["kernel_nodes"]),
            memory_nodes=tuple(d["memory_nodes"]),
            edges=tuple(
                (e["producer"], e["consumer"], e["bytes"]) for e in d["edges"]
            ),
        )
    return InterconnectPlan(
        app=data["app"],
        graph=graph,
        duplications=tuple(
            DuplicationDecision(**d) for d in data["duplications"]
        ),
        sharing=tuple(SharedMemoryLink(**l) for l in data["sharing"]),
        mappings={
            m["kernel"]: KernelMapping(
                kernel=m["kernel"],
                receive=ReceiveClass[m["receive"]],
                send=SendClass[m["send"]],
                attach_kernel=KernelAttach[m["attach_kernel"]],
                attach_memory=MemoryAttach[m["attach_memory"]],
            )
            for m in data["mappings"]
        },
        noc=noc,
        pipeline=tuple(
            PipelineDecision(
                case=PipelineCase(d["case"]),
                kernel=d["kernel"],
                consumer=d["consumer"],
                delta_seconds=d["delta_seconds"],
                applied=d["applied"],
                reason=d["reason"],
            )
            for d in data["pipeline"]
        ),
    )


# -- file helpers -------------------------------------------------------------


def _json_text(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_json(obj: Dict[str, Any], path: Union[str, pathlib.Path]) -> None:
    """Write a serialized artifact to disk (pretty-printed, stable order)."""
    pathlib.Path(path).write_text(_json_text(obj))


def save_json_atomic(
    obj: Dict[str, Any], path: Union[str, pathlib.Path]
) -> None:
    """:func:`save_json` through a temporary file and :func:`os.replace`.

    The temporary file sits in the same directory, so the rename is
    atomic: a concurrent reader sees the old file or the whole new one,
    never a prefix. When the write or the rename fails, the temporary
    file is removed and the error propagates.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_text(_json_text(obj))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def load_json(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Read a serialized artifact from disk."""
    return json.loads(pathlib.Path(path).read_text())
