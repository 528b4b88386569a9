"""Algorithm 1 — the custom interconnect design algorithm, end to end.

Given the application's communication graph (built from a QUAD profile
and per-kernel timing), the designer:

1. duplicates parallelizable hot kernels when ``Δ_dp > 0`` and the device
   has room (lines 2–6);
2. applies the shared-local-memory solution to exclusive producer→
   consumer pairs (lines 8–13);
3. classifies each kernel's residual communication topology and applies
   the adaptive mapping function (line 14, Table I);
4. places the NoC-attached kernels and memories on the smallest mesh
   that fits, minimizing weighted hop distance;
5. evaluates pipelining cases 1 and 2 (line 15).

Every stage can be disabled through :class:`DesignConfig` — that is how
the ablation benches and the paper's "NoC-only" comparison system are
expressed (sharing and adaptive mapping off, everything on the NoC).
:func:`price_interconnect` runs stages 1–3 only and returns what the
synthesis estimate needs; the flow prices the NoC-only system with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Tuple

from ..errors import DesignError
from ..hw.device import Device, XC5VFX130T
from ..hw.resources import ComponentKind, ResourceCost, component_cost
from ..hw.synthesis import PLATFORM_BASE
from ..obs import provenance as prov
from ..obs.provenance import ProvenanceLog
from ..obs.trace import Tracer, active
from .commgraph import CommGraph
from .duplication import DuplicationDecision, decide_duplications
from .mapping import adaptive_map, explain_mapping
from .parallel import PipelineDecision, find_pipeline_opportunities
from .placement import place_on_mesh
from .plan import (
    InterconnectPlan,
    KernelMapping,
    NocPlan,
    bill_of_materials,
    memory_node,
)
from .sharing import SharedMemoryLink, residual_graph, sharing_decisions
from .topology import (
    KernelAttach,
    MemoryAttach,
    classify_receive,
    classify_send,
)


@dataclass(frozen=True, slots=True)
class DesignConfig:
    """Knobs of the design algorithm.

    ``theta_s_per_byte`` is the paper's ``θ`` — the average time to move
    one byte over the system communication infrastructure; it comes from
    the bus model. ``stream_overhead_s`` is the paper's ``O``.
    """

    theta_s_per_byte: float
    stream_overhead_s: float = 2.0e-6
    device: Device = XC5VFX130T
    utilization_cap: float = 0.85
    max_duplications: int = 1
    enable_duplication: bool = True
    enable_sharing: bool = True
    enable_noc: bool = True
    enable_adaptive_mapping: bool = True
    enable_pipelining: bool = True
    #: NoC topology: "mesh" (the paper's) or "torus" (extension).
    noc_topology: str = "mesh"

    def __post_init__(self) -> None:
        if self.theta_s_per_byte <= 0:
            raise DesignError(f"theta must be positive, got {self.theta_s_per_byte}")
        if self.stream_overhead_s < 0:
            raise DesignError(f"overhead must be >= 0, got {self.stream_overhead_s}")
        if self.noc_topology not in ("mesh", "torus"):
            raise DesignError(f"unknown NoC topology {self.noc_topology!r}")

    def noc_only(self) -> "DesignConfig":
        """The paper's NoC-only comparison system: parallel solution on,
        shared memory off, adaptive mapping off (everything on the NoC)."""
        return replace(self, enable_sharing=False, enable_adaptive_mapping=False)

    def bus_only(self) -> "DesignConfig":
        """Pure baseline interconnect (used by ablations)."""
        return replace(
            self,
            enable_duplication=False,
            enable_sharing=False,
            enable_noc=False,
            enable_pipelining=False,
        )


class Decisions(NamedTuple):
    """What Algorithm 1 decided before placement
    (:meth:`InterconnectDesigner.decide`)."""

    #: Post-duplication communication graph.
    graph: CommGraph
    duplications: Tuple[DuplicationDecision, ...]
    sharing: Tuple[SharedMemoryLink, ...]
    #: ``graph`` minus the shared-memory edges: what the NoC or bus
    #: carries.
    residual: CommGraph
    mappings: Dict[str, KernelMapping]


class InterconnectDesigner:
    """Stateful wrapper running Algorithm 1 for one application.

    The optional ``tracer`` receives one span per stage plus an instant
    marker per decision; independently of it, every decision is recorded
    in a deterministic :class:`~repro.obs.provenance.ProvenanceLog`
    attached to the resulting plan.
    """

    def __init__(
        self,
        app: str,
        graph: CommGraph,
        config: DesignConfig,
        tracer: Tracer | None = None,
    ) -> None:
        self.app = app
        self.graph = graph
        self.config = config
        self.tracer = active(tracer)
        self.log = ProvenanceLog(self.tracer)

    # -- stages ------------------------------------------------------------
    def _committed_cost(self, graph: CommGraph) -> ResourceCost:
        cost = PLATFORM_BASE + component_cost(ComponentKind.BUS)
        for name in graph.kernel_names():
            cost = cost + graph.kernel(name).resources
        return cost

    def _duplicate(self) -> Tuple[CommGraph, Tuple[DuplicationDecision, ...]]:
        if not self.config.enable_duplication:
            return self.graph, ()
        return decide_duplications(
            self.graph,
            self.config.device,
            self.config.stream_overhead_s,
            self._committed_cost(self.graph),
            utilization_cap=self.config.utilization_cap,
            max_duplications=self.config.max_duplications,
        )

    def _map_kernels(
        self, graph: CommGraph, residual: CommGraph
    ) -> Dict[str, KernelMapping]:
        mappings: Dict[str, KernelMapping] = {}
        for name in graph.kernel_names():
            receive = classify_receive(residual, name)
            send = classify_send(residual, name)
            if not self.config.enable_noc:
                attach = (KernelAttach.K1, MemoryAttach.M1)
                rule = "NoC disabled => everything on the bus"
            elif self.config.enable_adaptive_mapping:
                attach = adaptive_map(receive, send)
                rule = explain_mapping(receive, send)
            else:
                # NoC-only: maximum attachment — every kernel and every
                # local memory gets a router (the paper's strawman).
                attach = (KernelAttach.K2, MemoryAttach.M3)
                rule = "adaptive mapping disabled => maximum attachment"
            mappings[name] = KernelMapping(
                kernel=name,
                receive=receive,
                send=send,
                attach_kernel=attach[0],
                attach_memory=attach[1],
            )
            self.log.record(
                prov.STAGE_CLASSIFY,
                name,
                outcome=f"{attach[0].name},{attach[1].name}",
                receive=receive.name,
                send=send.name,
                attach_kernel=attach[0].name,
                attach_memory=attach[1].name,
                rule=rule,
            )
        return mappings

    def _build_noc(
        self,
        mappings: Dict[str, KernelMapping],
        residual: CommGraph,
    ) -> NocPlan | None:
        if not self.config.enable_noc:
            return None
        kernel_nodes = [m.kernel for m in mappings.values() if m.on_noc]
        memory_nodes = [m.kernel for m in mappings.values() if m.memory_on_noc]
        if not kernel_nodes and not memory_nodes:
            return None
        nodes = list(kernel_nodes) + [memory_node(k) for k in memory_nodes]
        edges: Dict[Tuple[str, str], float] = {}
        noc_edges: List[Tuple[str, str, int]] = []
        for p, c, b in residual.edges_by_weight():
            if p not in kernel_nodes or c not in memory_nodes:
                raise DesignError(
                    f"residual edge {p}->{c} not representable on the NoC "
                    f"(mapping gave K={mappings[p].attach_kernel}, "
                    f"M={mappings[c].attach_memory})"
                )
            key = (p, memory_node(c))
            edges[key] = edges.get(key, 0.0) + float(b)
            noc_edges.append((p, c, b))
        placement = place_on_mesh(
            nodes, edges, torus=self.config.noc_topology == "torus"
        )
        self.log.record(
            prov.STAGE_NOC,
            self.app,
            outcome="built",
            width=placement.width,
            height=placement.height,
            topology=self.config.noc_topology,
            routers=len(placement.positions),
            weighted_cost=placement.weighted_cost(edges),
        )
        for node, (x, y) in sorted(placement.positions.items()):
            self.log.record(prov.STAGE_PLACEMENT, node, outcome="placed", x=x, y=y)
        for a, b, weight, hops in placement.edge_distances(edges):
            self.log.record(
                prov.STAGE_PLACEMENT,
                f"{a}->{b}",
                outcome="distance",
                bytes=int(weight),
                hops=hops,
            )
        return NocPlan(
            placement=placement,
            kernel_nodes=tuple(kernel_nodes),
            memory_nodes=tuple(memory_nodes),
            edges=tuple(noc_edges),
        )

    # -- entry points ---------------------------------------------------------
    def decide(self) -> Decisions:
        """Run Algorithm 1's decision stages: duplication, sharing and
        mapping. Placement and pipelining are left to :meth:`design`."""
        cfg = self.config
        self.log.record(
            prov.STAGE_CONFIG,
            self.app,
            outcome="info",
            theta_s_per_byte=cfg.theta_s_per_byte,
            stream_overhead_s=cfg.stream_overhead_s,
            enable_duplication=cfg.enable_duplication,
            enable_sharing=cfg.enable_sharing,
            enable_noc=cfg.enable_noc,
            enable_adaptive_mapping=cfg.enable_adaptive_mapping,
            enable_pipelining=cfg.enable_pipelining,
            noc_topology=cfg.noc_topology,
            utilization_cap=cfg.utilization_cap,
            max_duplications=cfg.max_duplications,
        )
        for name in self.graph.kernel_names():
            spec = self.graph.kernel(name)
            self.log.record(
                prov.STAGE_SELECT,
                name,
                outcome="accelerated",
                tau_cycles=spec.tau_cycles,
                parallelizable=spec.parallelizable,
                d_k_in=self.graph.d_k_in(name),
                d_k_out=self.graph.d_k_out(name),
                d_h_in=self.graph.d_h_in(name),
                d_h_out=self.graph.d_h_out(name),
            )

        with self.tracer.span("design.duplicate", category="design", app=self.app):
            graph, duplications = self._duplicate()
        if not cfg.enable_duplication:
            self.log.record(
                prov.STAGE_DUPLICATION, self.app, outcome="disabled",
                reason="enable_duplication=False",
            )
        for d in duplications:
            self.log.record(
                prov.STAGE_DUPLICATION,
                d.kernel,
                outcome="applied" if d.applied else "rejected",
                delta_dp_s=d.delta_dp_seconds,
                reason=d.reason,
            )

        with self.tracer.span("design.sharing", category="design", app=self.app):
            if cfg.enable_sharing:
                decisions = sharing_decisions(graph)
                sharing = tuple(d.link() for d in decisions if d.accepted)
                for d in decisions:
                    self.log.record(
                        prov.STAGE_SHARING,
                        f"{d.producer}->{d.consumer}",
                        outcome="applied" if d.accepted else "rejected",
                        bytes=d.bytes,
                        crossbar=d.crossbar,
                        reason=d.reason,
                    )
            else:
                sharing = ()
                self.log.record(
                    prov.STAGE_SHARING, self.app, outcome="disabled",
                    reason="enable_sharing=False",
                )
            residual = residual_graph(graph, sharing)

        with self.tracer.span("design.mapping", category="design", app=self.app):
            mappings = self._map_kernels(graph, residual)
        return Decisions(graph, duplications, sharing, residual, mappings)

    def design(self) -> InterconnectPlan:
        """Run Algorithm 1 and return the plan (with full provenance)."""
        cfg = self.config
        graph, duplications, sharing, residual, mappings = self.decide()
        with self.tracer.span("design.placement", category="design", app=self.app):
            noc = self._build_noc(mappings, residual)
        if noc is None:
            reason = (
                "enable_noc=False" if not cfg.enable_noc
                else "no kernel or memory needs a router"
            )
            self.log.record(
                prov.STAGE_NOC, self.app, outcome="skipped", reason=reason
            )

        pipeline: Tuple[PipelineDecision, ...] = ()
        with self.tracer.span("design.pipelining", category="design", app=self.app):
            if cfg.enable_pipelining:
                kept: List[Tuple[str, str]] = [
                    (l.producer, l.consumer) for l in sharing
                ]
                if noc is not None:
                    kept.extend((p, c) for p, c, _ in noc.edges)
                pipeline = find_pipeline_opportunities(
                    graph,
                    tuple(kept),
                    cfg.theta_s_per_byte,
                    cfg.stream_overhead_s,
                )
                for p in pipeline:
                    subject = (
                        f"{p.kernel}->{p.consumer}" if p.consumer else p.kernel
                    )
                    self.log.record(
                        prov.STAGE_PIPELINE,
                        subject,
                        outcome="applied" if p.applied else "rejected",
                        case=p.case.value,
                        delta_s=p.delta_seconds,
                        reason=p.reason,
                    )
            else:
                self.log.record(
                    prov.STAGE_PIPELINE, self.app, outcome="disabled",
                    reason="enable_pipelining=False",
                )

        return InterconnectPlan(
            app=self.app,
            graph=graph,
            duplications=duplications,
            sharing=sharing,
            mappings=mappings,
            noc=noc,
            pipeline=pipeline,
            provenance=self.log.events(),
        )


def design_interconnect(
    app: str,
    graph: CommGraph,
    config: DesignConfig,
    tracer: Tracer | None = None,
) -> InterconnectPlan:
    """Functional façade over :class:`InterconnectDesigner`."""
    return InterconnectDesigner(app, graph, config, tracer=tracer).design()


def price_interconnect(
    app: str,
    graph: CommGraph,
    config: DesignConfig,
    tracer: Tracer | None = None,
) -> Tuple[CommGraph, Dict[ComponentKind, int]]:
    """What synthesis needs of :func:`design_interconnect`, unplaced.

    Returns the post-duplication graph, whose kernels are priced, and
    the bill of materials that the designed plan's
    :meth:`~InterconnectPlan.component_counts` would give. Only the
    decision stages run: mesh placement and pipelining change neither.
    """
    decided = InterconnectDesigner(app, graph, config, tracer=tracer).decide()
    return decided.graph, bill_of_materials(
        decided.graph, decided.sharing, decided.mappings
    )
