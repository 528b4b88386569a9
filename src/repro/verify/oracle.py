"""Differential oracle: analytic model vs the discrete-event simulator.

For every generated case the oracle runs the designed system through
both performance models and checks their agreement against *derived*
tolerances — each bound is computed from the case's own hardware
parameters and the timing model's structure, never a magic constant
(DESIGN.md §9 states each bound's derivation):

``baseline_sim_exact``
    the baseline simulator is strictly sequential, so its makespan must
    equal the closed-form replica ``Σ_k [dma(D_in) + τ + dma(D_out)]``
    to floating-point precision;
``baseline_differential``
    analytic Eq. 2 charges ``θ`` per byte with per-transaction overhead
    amortized over a *typical* burst; the simulator charges real bursts
    and DMA setup. Per transfer the divergence is bounded by one bus
    cycle below (remainder-burst amortization) and by
    ``setup + (arb + addr + 2)·bus_cycle`` above;
``conservation``
    exact byte accounting — the baseline bus moves exactly
    ``Σ (D_in + D_out)``; the proposed bus moves exactly the host
    traffic plus two trips per relay edge; the NoC delivers exactly its
    residual edges' bytes;
``proposed_activity_bound``
    a DES makespan cannot exceed the sum of all activity durations
    (every wait in the process network is a wait *for* another listed
    activity), so the proposed makespan is bounded by
    ``Σ τ + Σ host DMA + Σ relay DMA + Σ NoC sends`` with streamed
    transfers counted at their split-overhead worst case;
``proposed_bounds``
    the proposed makespan is at least the longest single computation
    and at least the bus busy time (one bus, one timeline);
``proposed_vs_baseline``
    the designed system does not regress the baseline beyond the
    explainable slack: 10 % scheduling margin plus, per NoC edge, the
    amount by which an under-provisioned NoC is genuinely slower than
    the two bus trips the baseline used;
``analytic_bounds``
    the analytic proposed computation is at least half the baseline's
    and its communication is non-negative (the model's clamps).

Metamorphic checks (:func:`metamorphic_checks`) re-design transformed
inputs and compare structures: byte-count scale invariance (duplication
disabled — integer halving of odd byte counts breaks exact scaling),
kernel-relabeling permutation invariance, and host-only degeneration to
the pure bus baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.analytic import AnalyticModel
from ..core.commgraph import CommGraph
from ..core.designer import design_interconnect
from ..core.plan import InterconnectPlan, memory_node
from ..sim.bus import DEFAULT_BUS_CLOCK
from ..sim.noc.adapter import AdapterParams
from ..sim.noc.mesh import DEFAULT_NOC_CLOCK
from ..sim.systems import (
    SimulatedTimes,
    SystemParams,
    simulate_baseline,
    simulate_proposed,
)
from ..units import HOST_CLOCK
from .generate import GeneratedCase

#: Relative slack on every derived bound (floating-point headroom).
REL_EPS = 1e-9
#: Scheduling margin for the proposed-vs-baseline comparison.
BASELINE_MARGIN = 0.10
#: Byte multiplier used by the scale-invariance metamorphic check.
SCALE_FACTOR = 3


@dataclass(frozen=True)
class Violation:
    """One failed check on one fuzz case.

    ``check`` names the failure mode — an oracle check name below, an
    analyzer rule id (``P002``, ...) or a harness outcome — and is what
    the shrinker keeps constant while it minimizes.
    """

    check: str
    subject: str
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {"check": self.check, "subject": self.subject,
                "message": self.message}

    def __str__(self) -> str:
        return f"[{self.check}] {self.subject}: {self.message}"


class _Collector:
    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def ensure(self, ok: bool, check: str, subject: str, message: str) -> None:
        if not ok:
            self.violations.append(Violation(check, subject, message))


# -- closed-form replicas of the simulator's timing ---------------------------

def bus_transfer_s(nbytes: int, params: SystemParams) -> float:
    """Uncontended bus occupancy of one transfer, burst-exact."""
    total_cycles = 0
    remaining = int(nbytes)
    while remaining > 0:
        burst = min(remaining, params.bus_burst_bytes)
        total_cycles += (
            params.bus_arbitration_cycles
            + params.bus_address_cycles
            + math.ceil(burst / params.bus_width_bytes)
        )
        remaining -= burst
    return DEFAULT_BUS_CLOCK.cycles_to_seconds(total_cycles)


def dma_transfer_s(nbytes: int, params: SystemParams) -> float:
    """DMA setup + bus time of one transfer (0 for empty transfers)."""
    if nbytes <= 0:
        return 0.0
    return (
        HOST_CLOCK.cycles_to_seconds(params.dma_setup_cycles)
        + bus_transfer_s(nbytes, params)
    )


def _dma_split_upper_s(nbytes: int, params: SystemParams) -> float:
    """Upper bound on a possibly-streamed host transfer (two halves)."""
    if nbytes <= 0:
        return 0.0
    h1, h2 = nbytes // 2, nbytes - nbytes // 2
    return dma_transfer_s(h1, params) + dma_transfer_s(h2, params)


def noc_send_upper_s(nbytes: int, hops: int, params: SystemParams) -> float:
    """Upper bound on one store-and-forward NoC send of ``nbytes``.

    Every packet pays each hop's latency plus its serialization time;
    injection/ejection adapter latency once per send.
    """
    if nbytes <= 0:
        return 0.0
    adapters = AdapterParams()
    cycles = adapters.kernel_inject_cycles + adapters.memory_eject_cycles
    remaining = int(nbytes)
    while remaining > 0:
        chunk = min(remaining, params.noc_max_packet_bytes)
        cycles += hops * (
            params.noc_hop_latency_cycles
            + math.ceil(chunk / params.noc_link_width_bytes)
        )
        remaining -= chunk
    return DEFAULT_NOC_CLOCK.cycles_to_seconds(cycles)


def _noc_split_upper_s(nbytes: int, hops: int, params: SystemParams) -> float:
    """NoC send bound covering the case-2 streamed (two-send) variant."""
    h1, h2 = nbytes // 2, nbytes - nbytes // 2
    return (
        noc_send_upper_s(h1, hops, params)
        + noc_send_upper_s(h2, hops, params)
    )


def _edge_kinds(
    plan: InterconnectPlan,
) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str]], Set[Tuple[str, str]]]:
    """The proposed system's (sm, noc, relay) edge partition."""
    sm = {(l.producer, l.consumer) for l in plan.sharing}
    noc = (
        {(p, c) for p, c, _ in plan.noc.edges}
        if plan.noc is not None
        else set()
    )
    relay = {e for e in plan.graph.kk_edges if e not in sm and e not in noc}
    return sm, noc, relay


def _noc_hops(plan: InterconnectPlan, p: str, c: str) -> int:
    assert plan.noc is not None
    return plan.noc.placement.distance(p, memory_node(c))


# -- the differential oracle --------------------------------------------------

def differential_check(
    case: GeneratedCase,
    plan: InterconnectPlan,
    sim_base: Optional[SimulatedTimes] = None,
    sim_prop: Optional[SimulatedTimes] = None,
) -> List[Violation]:
    """Run both models over one designed case and flag disagreement.

    ``sim_base``/``sim_prop`` can be passed in when the caller already
    simulated (the harness reuses its runs); otherwise they are produced
    here.
    """
    c = _Collector()
    graph, params = case.graph, case.params
    if sim_base is None:
        sim_base = simulate_baseline(graph, 0.0, params)
    if sim_prop is None:
        sim_prop = simulate_proposed(plan, 0.0, params)
    model = AnalyticModel(graph, params.theta_s_per_byte(), host_other_s=0.0)
    an_base = model.baseline()

    # 1. The sequential baseline equals its closed form exactly.
    exact = sum(
        dma_transfer_s(graph.d_in(k), params)
        + graph.kernel(k).tau_seconds
        + dma_transfer_s(graph.d_out(k), params)
        for k in graph.kernel_names()
    )
    c.ensure(
        math.isclose(sim_base.kernels_s, exact, rel_tol=REL_EPS, abs_tol=1e-12),
        "baseline_sim_exact", case.label(),
        f"simulated baseline {sim_base.kernels_s!r}s != closed form {exact!r}s",
    )

    # 2. Analytic Eq. 2 vs the simulator, within the derived envelope.
    transfers = [graph.d_in(k) for k in graph.kernel_names()] + [
        graph.d_out(k) for k in graph.kernel_names()
    ]
    transfers = [t for t in transfers if t > 0]
    bus_cycle = DEFAULT_BUS_CLOCK.period_s
    setup_s = HOST_CLOCK.cycles_to_seconds(params.dma_setup_cycles)
    per_txn = (
        params.bus_arbitration_cycles + params.bus_address_cycles + 2
    ) * bus_cycle
    upper = len(transfers) * (setup_s + per_txn)
    lower = -len(transfers) * bus_cycle
    diff = sim_base.kernels_s - an_base.kernels_s
    eps = 1e-12 + REL_EPS * an_base.kernels_s
    c.ensure(
        lower - eps <= diff <= upper + eps,
        "baseline_differential", case.label(),
        f"sim - analytic = {diff!r}s outside [{lower!r}, {upper!r}]s "
        f"({len(transfers)} transfers)",
    )

    # 3. Exact byte conservation on every interconnect.
    c.ensure(
        int(sim_base.extras["bus_bytes"]) == graph.total_kernel_traffic(),
        "conservation", case.label(),
        f"baseline bus moved {int(sim_base.extras['bus_bytes'])}B, graph "
        f"total is {graph.total_kernel_traffic()}B",
    )
    pg = plan.graph
    _sm, noc_edges, relay = _edge_kinds(plan)
    host_bytes = sum(pg.host_in.values()) + sum(pg.host_out.values())
    relay_bytes = sum(pg.kk_edges[e] for e in relay)
    expect_bus = host_bytes + 2 * relay_bytes
    c.ensure(
        int(sim_prop.extras["bus_bytes"]) == expect_bus,
        "conservation", case.label(),
        f"proposed bus moved {int(sim_prop.extras['bus_bytes'])}B, expected "
        f"{expect_bus}B (host {host_bytes}B + 2x relay {relay_bytes}B)",
    )
    noc_total = sum(pg.kk_edges[e] for e in noc_edges)
    c.ensure(
        sim_prop.noc_bytes == noc_total,
        "conservation", case.label(),
        f"NoC delivered {sim_prop.noc_bytes}B, residual edges total "
        f"{noc_total}B",
    )

    # 4. Proposed makespan below the sum of all activity durations.
    activity = sum(pg.kernel(k).tau_seconds for k in pg.kernel_names())
    for k in pg.kernel_names():
        activity += _dma_split_upper_s(pg.d_h_in(k), params)
        activity += _dma_split_upper_s(pg.d_h_out(k), params)
    for e in relay:
        activity += 2.0 * dma_transfer_s(pg.kk_edges[e], params)
    for p, co in noc_edges:
        activity += _noc_split_upper_s(
            pg.kk_edges[(p, co)], _noc_hops(plan, p, co), params
        )
    c.ensure(
        sim_prop.kernels_s <= activity * (1.0 + REL_EPS) + 1e-12,
        "proposed_activity_bound", case.label(),
        f"proposed makespan {sim_prop.kernels_s!r}s exceeds the total "
        f"activity bound {activity!r}s",
    )

    # 5. Proposed makespan above its trivial floors.
    max_tau = max(pg.kernel(k).tau_seconds for k in pg.kernel_names())
    floor = max(max_tau, sim_prop.bus_busy_s)
    c.ensure(
        sim_prop.kernels_s >= floor * (1.0 - REL_EPS) - 1e-12,
        "proposed_bounds", case.label(),
        f"proposed makespan {sim_prop.kernels_s!r}s below floor {floor!r}s "
        f"(max tau / bus busy)",
    )

    # 6. No unexplained regression over the simulated baseline.
    noc_excess = 0.0
    for p, co in noc_edges:
        b = pg.kk_edges[(p, co)]
        baseline_trips = 2.0 * dma_transfer_s(b, params)
        noc_excess += max(
            0.0,
            _noc_split_upper_s(b, _noc_hops(plan, p, co), params)
            - baseline_trips,
        )
    split_overhead = sum(
        setup_s + per_txn
        for k in pg.kernel_names()
        for b in (pg.d_h_in(k), pg.d_h_out(k))
        if b > 0
    )
    allowed = (
        sim_base.kernels_s * (1.0 + BASELINE_MARGIN)
        + noc_excess
        + split_overhead
    )
    c.ensure(
        sim_prop.kernels_s <= allowed + eps,
        "proposed_vs_baseline", case.label(),
        f"proposed {sim_prop.kernels_s!r}s exceeds baseline "
        f"{sim_base.kernels_s!r}s plus explainable slack {allowed!r}s",
    )

    # 7. The analytic proposed system keeps the model's stated bounds:
    #    duplication and chain pipelining at best halve the computation,
    #    and no saving makes communication negative.
    an_prop = model.proposed(plan)
    c.ensure(
        an_prop.computation_s >= an_base.computation_s / 2.0 - eps
        and an_prop.communication_s >= 0.0,
        "analytic_bounds", case.label(),
        f"analytic proposed computation {an_prop.computation_s!r}s "
        f"(floor {an_base.computation_s / 2.0!r}s) or communication "
        f"{an_prop.communication_s!r}s (floor 0s) below its floor",
    )
    return c.violations


# -- metamorphic transforms ---------------------------------------------------

def _scaled_graph(graph: CommGraph, k: int) -> CommGraph:
    return CommGraph(
        kernels=graph.kernels,
        kk_edges={e: b * k for e, b in graph.kk_edges.items()},
        host_in={n: b * k for n, b in graph.host_in.items()},
        host_out={n: b * k for n, b in graph.host_out.items()},
    )


def _structure(plan: InterconnectPlan, scale: int = 1):
    """The scale-covariant design structure used by the scale check."""
    return (
        tuple(
            (l.producer, l.consumer, l.bytes * scale, l.crossbar)
            for l in plan.sharing
        ),
        {
            name: (m.receive, m.send, m.attach_kernel, m.attach_memory)
            for name, m in plan.mappings.items()
        },
        None
        if plan.noc is None
        else (
            frozenset((p, c, b * scale) for p, c, b in plan.noc.edges),
            dict(plan.noc.placement.positions),
            (plan.noc.placement.width, plan.noc.placement.height),
            plan.noc.placement.torus,
        ),
    )


def check_scale_invariance(
    case: GeneratedCase, factor: int = SCALE_FACTOR
) -> List[Violation]:
    """Scaling every byte count by ``factor`` scales the design, not its
    shape.

    Duplication is disabled on both sides: ``split_bytes`` halves odd
    byte counts with integer floor/ceil, so a 1-byte edge loses one copy
    entirely while its scaled counterpart keeps both — a genuine (and
    documented) discreteness of the algorithm, not a bug.
    """
    c = _Collector()
    config = replace(case.config(), enable_duplication=False)
    plan = design_interconnect(case.label(), case.graph, config)
    scaled = design_interconnect(
        case.label(), _scaled_graph(case.graph, factor), config
    )
    c.ensure(
        _structure(plan, scale=factor) == _structure(scaled),
        "metamorphic_scale", case.label(),
        f"design structure changed under x{factor} byte scaling",
    )
    return c.violations


def _renamed(name: str, mapping: Dict[str, str]) -> str:
    if "#" in name:
        stem, _, sfx = name.rpartition("#")
        return f"{mapping[stem]}#{sfx}"
    return mapping[name]


def _rename_graph(graph: CommGraph, mapping: Dict[str, str]) -> CommGraph:
    kernels = {
        mapping[n]: replace(s, name=mapping[n]) for n, s in graph.kernels.items()
    }
    return CommGraph(
        kernels=kernels,
        kk_edges={
            (mapping[p], mapping[c]): b for (p, c), b in graph.kk_edges.items()
        },
        host_in={mapping[n]: b for n, b in graph.host_in.items()},
        host_out={mapping[n]: b for n, b in graph.host_out.items()},
    )


def check_permutation_invariance(case: GeneratedCase) -> List[Violation]:
    """Relabeling the kernels must not change any design decision.

    The generator draws distinct ``τ`` values and distinct edge byte
    counts precisely so that every ordering the algorithm uses is
    determined by the numbers, never by the name tie-breaks — making
    this property exact. The renaming reverses the lexicographic order
    of all kernel names, the harshest permutation for tie-break bugs.
    Router placement *positions* are excluded: symmetric duplicate
    copies may legitimately swap seats; count, dimensions and edges must
    still match.
    """
    c = _Collector()
    names = sorted(case.graph.kernel_names())
    mapping = {n: f"q{len(names) - 1 - i}" for i, n in enumerate(names)}
    inverse = {v: k for k, v in mapping.items()}
    config = case.config()
    plan = design_interconnect(case.label(), case.graph, config)
    renamed = design_interconnect(
        case.label(), _rename_graph(case.graph, mapping), config
    )

    def back(n: str) -> str:
        return _renamed(n, inverse)

    dup = {d.kernel for d in plan.duplications if d.applied}
    dup_r = {back(d.kernel) for d in renamed.duplications if d.applied}
    c.ensure(
        dup == dup_r, "metamorphic_permutation", case.label(),
        f"duplicated kernels changed under relabeling: {sorted(dup)} vs "
        f"{sorted(dup_r)}",
    )
    sm = {(l.producer, l.consumer, l.bytes, l.crossbar) for l in plan.sharing}
    sm_r = {
        (back(l.producer), back(l.consumer), l.bytes, l.crossbar)
        for l in renamed.sharing
    }
    c.ensure(
        sm == sm_r, "metamorphic_permutation", case.label(),
        "shared-memory pairings changed under relabeling",
    )
    maps = {
        n: (m.receive, m.send, m.attach_kernel, m.attach_memory)
        for n, m in plan.mappings.items()
    }
    maps_r = {
        back(n): (m.receive, m.send, m.attach_kernel, m.attach_memory)
        for n, m in renamed.mappings.items()
    }
    c.ensure(
        maps == maps_r, "metamorphic_permutation", case.label(),
        "Table I classifications changed under relabeling",
    )
    noc = (
        frozenset((p, co, b) for p, co, b in plan.noc.edges)
        if plan.noc
        else None
    )
    noc_r = (
        frozenset((back(p), back(co), b) for p, co, b in renamed.noc.edges)
        if renamed.noc
        else None
    )
    c.ensure(
        noc == noc_r, "metamorphic_permutation", case.label(),
        "NoC edge set changed under relabeling",
    )
    routers = plan.noc.router_count if plan.noc else 0
    routers_r = renamed.noc.router_count if renamed.noc else 0
    c.ensure(
        routers == routers_r, "metamorphic_permutation", case.label(),
        f"router count changed under relabeling: {routers} vs {routers_r}",
    )
    pipe = {(d.case, d.kernel, d.consumer) for d in plan.pipeline if d.applied}
    pipe_r = {
        (d.case, back(d.kernel), d.consumer and back(d.consumer))
        for d in renamed.pipeline
        if d.applied
    }
    c.ensure(
        pipe == pipe_r, "metamorphic_permutation", case.label(),
        "applied pipelining changed under relabeling",
    )
    theta = case.params.theta_s_per_byte()
    model = AnalyticModel(case.graph, theta, 0.0)
    model_r = AnalyticModel(_rename_graph(case.graph, mapping), theta, 0.0)
    t, t_r = model.proposed(plan), model_r.proposed(renamed)
    c.ensure(
        math.isclose(t.kernels_s, t_r.kernels_s, rel_tol=REL_EPS, abs_tol=1e-15),
        "metamorphic_permutation", case.label(),
        f"analytic proposed time changed under relabeling: "
        f"{t.kernels_s!r}s vs {t_r.kernels_s!r}s",
    )
    return c.violations


def check_host_only_degeneration(case: GeneratedCase) -> List[Violation]:
    """Stripping all kernel-to-kernel edges must yield the bus baseline.

    With no inter-kernel traffic there is nothing to share, nothing to
    route, every kernel classifies ``{R2,S2} → {K1,M1}``, and (with the
    compute-side techniques disabled) the analytic proposed system is
    *exactly* the baseline.
    """
    c = _Collector()
    host_in = dict(case.graph.host_in)
    if not host_in and not case.graph.host_out:
        host_in[case.graph.kernel_names()[0]] = 64
    graph = CommGraph(
        kernels=case.graph.kernels,
        kk_edges={},
        host_in=host_in,
        host_out=case.graph.host_out,
    )
    config = replace(
        case.config(), enable_duplication=False, enable_pipelining=False
    )
    plan = design_interconnect(case.label(), graph, config)
    c.ensure(
        not plan.sharing, "metamorphic_host_only", case.label(),
        "sharing applied on a host-only graph",
    )
    c.ensure(
        plan.noc is None, "metamorphic_host_only", case.label(),
        "NoC built for a host-only graph",
    )
    bad = [
        n for n, m in plan.mappings.items()
        if m.on_noc or m.memory_on_noc
    ]
    c.ensure(
        not bad, "metamorphic_host_only", case.label(),
        f"kernels attached to a NoC on a host-only graph: {bad}",
    )
    c.ensure(
        plan.solution_label() == "Bus", "metamorphic_host_only", case.label(),
        f"solution is {plan.solution_label()!r}, expected 'Bus'",
    )
    model = AnalyticModel(graph, config.theta_s_per_byte, 0.0)
    base, prop = model.baseline(), model.proposed(plan)
    c.ensure(
        prop.computation_s == base.computation_s
        and prop.communication_s == base.communication_s,
        "metamorphic_host_only", case.label(),
        "analytic proposed != baseline on a host-only graph",
    )
    return c.violations


def metamorphic_checks(case: GeneratedCase) -> List[Violation]:
    """All three metamorphic properties for one case."""
    return (
        check_scale_invariance(case)
        + check_permutation_invariance(case)
        + check_host_only_degeneration(case)
    )
