"""Shared static lower-bound arithmetic for lanes of a designed system.

Both the bandwidth rules (``P001``) and the ``--sim-crosscheck``
verifier derive their numbers from these helpers, so the bound a rule
reports is — by construction — the same bound the simulator is checked
against. Every bound here is *sound*: it counts only work no schedule
can avoid (mandatory bytes over a serialized resource at its data
rate), so measured behavior can never legitimately beat it.

* Bus: every host byte crosses the bus once, every relay edge (a
  kernel edge the custom interconnect does not carry) crosses it twice
  (producer→host, host→consumer). The bound charges only the data
  cycles ``ceil(bytes / width)`` — arbitration, addressing and DMA
  setup only add time on top.
* NoC: deterministic routing fixes each link's offered load
  (:func:`repro.sim.noc.analysis.analyze_noc_load`); a link needs at
  least ``ceil(load / link_width)`` cycles to serialize it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from ..core.commgraph import CommGraph
from ..core.plan import InterconnectPlan, memory_node
from ..sim.bus import DEFAULT_BUS_CLOCK
from ..sim.noc.analysis import NocLoadReport, analyze_noc_load
from ..sim.noc.mesh import DEFAULT_NOC_CLOCK
from ..sim.systems import SystemParams

Coord = Tuple[int, int]
LinkKey = Tuple[Coord, Coord]


def relay_edges(plan: InterconnectPlan) -> List[Tuple[str, str, int]]:
    """Kernel edges the custom interconnect does not carry (bus relays)."""
    sm = {(l.producer, l.consumer) for l in plan.sharing}
    noc = (
        {(p, c) for p, c, _ in plan.noc.edges}
        if plan.noc is not None else set()
    )
    return [
        (p, c, b)
        for (p, c), b in plan.graph.kk_edges.items()
        if (p, c) not in sm and (p, c) not in noc
    ]


def bus_demand_bytes(plan: InterconnectPlan) -> int:
    """Mandatory bus bytes of the proposed system.

    Host input + host output for every kernel, plus two trips for each
    relay edge. This equals the simulator's ``bus.bytes_moved`` exactly
    (streamed transfers split but conserve bytes).
    """
    graph = plan.graph
    host = sum(graph.host_in.values()) + sum(graph.host_out.values())
    return host + 2 * sum(b for _, _, b in relay_edges(plan))


def bus_lower_bound_s(nbytes: int, params: SystemParams) -> float:
    """Sound lower bound on bus busy time for ``nbytes`` (data cycles)."""
    if nbytes <= 0:
        return 0.0
    cycles = -(-nbytes // params.bus_width_bytes)
    return DEFAULT_BUS_CLOCK.cycles_to_seconds(cycles)


def noc_link_bound_s(load_bytes: int, params: SystemParams) -> float:
    """Sound lower bound on one NoC link's busy time for its load.

    Degenerate link widths (< 1 byte) yield a zero bound instead of
    raising, so the analyzer stays total and rule ``N003`` gets to
    report the bad parameter as a diagnostic.
    """
    if load_bytes <= 0 or params.noc_link_width_bytes < 1:
        return 0.0
    cycles = -(-load_bytes // params.noc_link_width_bytes)
    return DEFAULT_NOC_CLOCK.cycles_to_seconds(cycles)


def computation_seconds(graph: CommGraph) -> float:
    """Total computation demand ``Σ τ`` of a graph, in seconds."""
    return sum(
        graph.kernel(k).tau_seconds for k in graph.kernel_names()
    )


@dataclass(frozen=True)
class LaneBounds:
    """Every static lane bound of one plan under one parameter set."""

    #: Mandatory bus traffic and its serialization bound.
    bus_bytes: int
    bus_bound_s: float
    #: Per-link NoC loads and bounds (empty without a NoC).
    link_loads: Dict[LinkKey, int]
    link_bounds_s: Dict[LinkKey, float]
    #: Channel-load report the link numbers came from (``None`` = no NoC).
    noc_report: "NocLoadReport | None"
    #: Computation demand of the plan's graph.
    computation_s: float

    @property
    def max_link_bound_s(self) -> float:
        return max(self.link_bounds_s.values(), default=0.0)


def lane_bounds(
    plan: InterconnectPlan, params: SystemParams
) -> LaneBounds:
    """Compute every static lane bound for one plan.

    NoC edges with an unplaced endpoint have no route; they are left
    out of the link loads (rule ``P009`` reports the missing node).
    """
    if plan.noc is not None:
        placed = plan.noc.placement.positions
        routable = tuple(
            e for e in plan.noc.edges
            if e[0] in placed and memory_node(e[1]) in placed
        )
        if routable != plan.noc.edges:
            plan = replace(plan, noc=replace(plan.noc, edges=routable))
    noc_report = analyze_noc_load(plan)
    link_loads: Dict[LinkKey, int] = (
        dict(noc_report.link_loads) if noc_report is not None else {}
    )
    demand = bus_demand_bytes(plan)
    return LaneBounds(
        bus_bytes=demand,
        bus_bound_s=bus_lower_bound_s(demand, params),
        link_loads=link_loads,
        link_bounds_s={
            link: noc_link_bound_s(load, params)
            for link, load in link_loads.items()
        },
        noc_report=noc_report,
        computation_s=computation_seconds(plan.graph),
    )


def link_name(link: LinkKey) -> str:
    """Stable human name of a directed link (matches profiler lanes)."""
    return f"noc{link[0]}->{link[1]}"
