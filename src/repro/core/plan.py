"""The interconnect plan — Algorithm 1's output artifact.

An :class:`InterconnectPlan` records every decision the designer made
(duplications, shared-memory pairings, per-kernel adaptive mapping,
mesh placement, pipelining) plus the *bill of materials* — how many
routers, network adapters, crossbars and muxes the custom interconnect
instantiates — which is what the synthesis estimator prices for
Table IV.

BRAM-port accounting (Section V-B): each local memory has two BRAM
ports. Its accessors are the kernel core, the host (when the kernel has
host traffic), the kernel's network adapter (a ``K2`` kernel's NA pulls
output data from the local BRAM), the memory's own network adapter
(``M2``/``M3``), and the sharing crossbar (which subsumes the host port
for crossbar-shared pairs). Memories with more than two accessors get a
multiplexer, generalizing the paper's JPEG example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..hw.resources import ComponentKind
from ..obs.provenance import ProvenanceEvent
from .commgraph import CommGraph
from .duplication import DuplicationDecision
from .parallel import PipelineDecision
from .placement import MeshPlacement
from .sharing import SharedMemoryLink
from .topology import KernelAttach, MemoryAttach, ReceiveClass, SendClass


def memory_node(kernel_name: str) -> str:
    """Mesh-node name of a kernel's local memory."""
    return f"mem:{kernel_name}"


@dataclass(frozen=True, slots=True)
class KernelMapping:
    """Adaptive-mapping result for one kernel (a Table I row instance)."""

    kernel: str
    receive: ReceiveClass
    send: SendClass
    attach_kernel: KernelAttach
    attach_memory: MemoryAttach

    @property
    def on_noc(self) -> bool:
        """Whether the kernel itself has a NoC port."""
        return self.attach_kernel is KernelAttach.K2

    @property
    def memory_on_noc(self) -> bool:
        """Whether the kernel's local memory has a NoC port."""
        return self.attach_memory in (MemoryAttach.M2, MemoryAttach.M3)


def shared_with(
    sharing: Sequence[SharedMemoryLink], kernel: str
) -> Optional[SharedMemoryLink]:
    """The sharing link a kernel participates in, if any."""
    for link in sharing:
        if kernel in (link.producer, link.consumer):
            return link
    return None


def memory_accessors(
    graph: CommGraph,
    sharing: Sequence[SharedMemoryLink],
    mapping: KernelMapping,
) -> Tuple[str, ...]:
    """Logical accessors of one kernel's local memory (see module doc)."""
    kernel = mapping.kernel
    accessors = ["core"]
    link = shared_with(sharing, kernel)
    crossbar_shared = link is not None and link.crossbar
    has_host = (graph.d_h_in(kernel) + graph.d_h_out(kernel)) > 0
    if crossbar_shared:
        accessors.append("crossbar")  # carries host traffic too
    elif link is not None:
        accessors.append("partner_core")  # direct sharing
        if has_host:
            accessors.append("host")
    elif has_host:
        accessors.append("host")
    if mapping.on_noc:
        accessors.append("kernel_na")
    if mapping.memory_on_noc:
        accessors.append("memory_na")
    return tuple(accessors)


def mux_kernels(
    graph: CommGraph,
    sharing: Sequence[SharedMemoryLink],
    mappings: Mapping[str, KernelMapping],
) -> Tuple[str, ...]:
    """Kernels whose local memory needs a >2-port multiplexer."""
    return tuple(
        k for k in graph.kernel_names()
        if len(memory_accessors(graph, sharing, mappings[k])) > 2
    )


def bill_of_materials(
    graph: CommGraph,
    sharing: Sequence[SharedMemoryLink],
    mappings: Mapping[str, KernelMapping],
) -> Dict[ComponentKind, int]:
    """Interconnect BOM of Algorithm 1's decisions, for the synthesis
    estimator.

    Needs no placement: every ``K2`` kernel and every ``M2``/``M3``
    memory gets one router and one network adapter, and those are
    exactly the nodes the placement stage puts on the mesh (rule
    ``P009`` checks it).
    """
    counts: Dict[ComponentKind, int] = {ComponentKind.BUS: 1}
    crossbars = sum(1 for l in sharing if l.crossbar)
    if crossbars:
        counts[ComponentKind.CROSSBAR] = crossbars
    kernel_nas = sum(1 for m in mappings.values() if m.on_noc)
    memory_nas = sum(1 for m in mappings.values() if m.memory_on_noc)
    if kernel_nas + memory_nas:
        counts[ComponentKind.ROUTER] = kernel_nas + memory_nas
        counts[ComponentKind.NA_KERNEL] = kernel_nas
        counts[ComponentKind.NA_MEMORY] = memory_nas
        counts[ComponentKind.NOC_GLUE] = 1
    muxes = len(mux_kernels(graph, sharing, mappings))
    if muxes:
        counts[ComponentKind.MUX] = muxes
    return counts


@dataclass(frozen=True)
class NocPlan:
    """The NoC part of the interconnect: who is attached and where."""

    placement: MeshPlacement
    #: Kernels with a NoC port (``K2``), insertion order.
    kernel_nodes: Tuple[str, ...]
    #: Kernels whose local memory has a NoC port (``M2``/``M3``).
    memory_nodes: Tuple[str, ...]
    #: Residual kernel-to-kernel edges the NoC carries, with byte loads.
    edges: Tuple[Tuple[str, str, int], ...]

    @property
    def router_count(self) -> int:
        """One router per attached entity."""
        return len(self.kernel_nodes) + len(self.memory_nodes)


@dataclass(frozen=True)
class InterconnectPlan:
    """Complete output of the custom interconnect design algorithm."""

    app: str
    #: Post-duplication communication graph the plan was designed for.
    graph: CommGraph
    duplications: Tuple[DuplicationDecision, ...]
    sharing: Tuple[SharedMemoryLink, ...]
    mappings: Mapping[str, KernelMapping]
    noc: Optional[NocPlan]
    pipeline: Tuple[PipelineDecision, ...]
    #: The designer's full decision log (see :mod:`repro.obs.provenance`).
    #: Excluded from equality/serialization: two plans with the same
    #: structure are the same plan, and golden digests stay stable.
    provenance: Tuple[ProvenanceEvent, ...] = field(
        default=(), compare=False, repr=False
    )

    # -- derived structure ---------------------------------------------------
    def kept_edges(self) -> Tuple[Tuple[str, str], ...]:
        """Kernel-to-kernel edges the custom interconnect carries
        (shared-memory pairs first, then NoC edges)."""
        edges: List[Tuple[str, str]] = [
            (l.producer, l.consumer) for l in self.sharing
        ]
        if self.noc is not None:
            edges.extend((p, c) for p, c, _ in self.noc.edges)
        return tuple(edges)

    def shared_with(self, kernel: str) -> Optional[SharedMemoryLink]:
        """The sharing link a kernel participates in, if any."""
        return shared_with(self.sharing, kernel)

    def memory_accessors(self, kernel: str) -> Tuple[str, ...]:
        """Logical accessors of a kernel's local memory (see module doc)."""
        return memory_accessors(self.graph, self.sharing, self.mappings[kernel])

    def mux_kernels(self) -> Tuple[str, ...]:
        """Kernels whose local memory needs a >2-port multiplexer."""
        return mux_kernels(self.graph, self.sharing, self.mappings)

    # -- bill of materials -------------------------------------------------
    def component_counts(self) -> Dict[ComponentKind, int]:
        """Interconnect BOM for the synthesis estimator."""
        return bill_of_materials(self.graph, self.sharing, self.mappings)

    # -- the Table IV "Solution" column -----------------------------------
    def solution_label(self) -> str:
        """Which techniques the plan uses: subset of {NoC, SM, P}."""
        parts = []
        if self.noc is not None and self.noc.router_count > 0:
            parts.append("NoC")
        if self.sharing:
            parts.append("SM")
        duplicated = any(d.applied for d in self.duplications)
        pipelined = any(p.applied for p in self.pipeline)
        if duplicated or pipelined:
            parts.append("P")
        return ", ".join(parts) if parts else "Bus"

    # -- human-readable rendering (Fig. 6) ---------------------------------
    def render_mesh(self) -> str:
        """ASCII picture of the NoC grid with router occupants.

        Empty string when the plan has no NoC. Node labels are
        truncated to keep the grid compact; memories show as ``M:name``.
        """
        if self.noc is None:
            return ""
        placement = self.noc.placement
        occupant = {coord: name for name, coord in placement.positions.items()}
        width = max(
            (len(self._mesh_label(n)) for n in placement.positions),
            default=4,
        )
        width = max(width, 4)
        rows = []
        for y in range(placement.height):
            cells = []
            for x in range(placement.width):
                name = occupant.get((x, y))
                label = self._mesh_label(name) if name else ""
                cells.append(f"[{label:^{width}}]")
            rows.append("--".join(cells))
            if y + 1 < placement.height:
                rows.append(
                    "  ".join(" " * (width // 2) + "|" + " " * (width - width // 2)
                              for _ in range(placement.width))
                )
        return "\n".join(rows)

    @staticmethod
    def _mesh_label(name: str, limit: int = 12) -> str:
        label = name.replace("mem:", "M:")
        return label if len(label) <= limit else label[: limit - 1] + "~"

    def describe(self) -> str:
        """Multi-line description of the plan (the Fig. 6 bench output)."""
        lines = [f"Interconnect plan for {self.app!r}"]
        applied_dups = [d.kernel for d in self.duplications if d.applied]
        if applied_dups:
            lines.append(f"  duplicated kernels : {', '.join(applied_dups)}")
        for link in self.sharing:
            style = "crossbar" if link.crossbar else "direct"
            lines.append(
                f"  shared memory      : {link.producer} -> {link.consumer} "
                f"({link.bytes} B, {style})"
            )
        for name, m in sorted(self.mappings.items()):
            lines.append(
                f"  {name:<22} {{{m.receive.name},{m.send.name}}} -> "
                f"{{{m.attach_kernel.name},{m.attach_memory.name}}}"
            )
        if self.noc is not None:
            p = self.noc.placement
            lines.append(
                f"  NoC                : {p.width}x{p.height} mesh, "
                f"{self.noc.router_count} routers"
            )
            for node, (x, y) in sorted(self.noc.placement.positions.items()):
                lines.append(f"    router({x},{y}) <- {node}")
            lines.extend("    " + row for row in self.render_mesh().splitlines())
        muxes = self.mux_kernels()
        if muxes:
            lines.append(f"  BRAM port muxes    : {', '.join(muxes)}")
        applied_pipe = [p for p in self.pipeline if p.applied]
        for p in applied_pipe:
            tgt = f"{p.kernel}->{p.consumer}" if p.consumer else p.kernel
            lines.append(f"  pipelining {p.case.value:<7}: {tgt}")
        lines.append(f"  solution           : {self.solution_label()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class BillOfMaterials:
    """Convenience view over a plan's component counts."""

    counts: Mapping[ComponentKind, int] = field(default_factory=dict)

    @classmethod
    def of(cls, plan: InterconnectPlan) -> "BillOfMaterials":
        """BOM of a plan."""
        return cls(plan.component_counts())

    def count(self, kind: ComponentKind) -> int:
        """Instances of one component kind (0 when absent)."""
        return self.counts.get(kind, 0)

    def total_components(self) -> int:
        """Total component instances across kinds."""
        return sum(self.counts.values())
