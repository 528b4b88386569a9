"""Plan-family rules (``P…``): findings about Algorithm 1's output.

This module is the repo's one postcondition checker for Algorithm 1
(DESIGN.md §9). Each rule re-derives its obligation from first
principles — graph arithmetic and the paper's formulas written out with
``KERNEL_CLOCK`` — and never calls the production helper that made the
decision, so a bug planted in that helper cannot hide from the rule
(lint rule R8 keeps this module off ``repro.core``'s decision modules).

Facts from before duplication come from the plan's ``select``
provenance events (τ, parallelizable and the four D's per original
kernel); θ, O, the duplication budget and the NoC topology come from
the ``config`` event. A plan without provenance (a JSON round trip
drops it) gets the soundness-only subset of each rule. Error-severity
findings are exactly the obligations the fuzz oracle enforces;
informational findings explain what the design costs and where the
static bottlenecks are.
"""

from __future__ import annotations

import math
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple,
)

from ..core.plan import memory_node
from ..core.topology import KernelAttach, MemoryAttach, ReceiveClass, SendClass
from ..hw.device import XC5VFX130T
from ..hw.resources import ComponentKind, component_cost
from ..hw.synthesis import PLATFORM_BASE
from ..obs import provenance as prov
from ..units import KERNEL_CLOCK
from .bounds import link_name, relay_edges
from .diagnostics import Diagnostic, Severity
from .engine import AnalysisContext, Rule, RuleFn

#: Names of the two copies a duplication puts in place of a kernel.
_COPY_SUFFIXES = ("#0", "#1")


def _close(a: float, b: float) -> bool:
    """Equal up to float rounding (recorded vs re-derived Δ values)."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


def _error(rule: str, path: str, message: str, **evidence: Any) -> Diagnostic:
    return Diagnostic(rule=rule, severity=Severity.ERROR, path=path,
                      message=message, evidence=evidence)


def _config_float(ctx: AnalysisContext, key: str) -> Optional[float]:
    """A number from the ``config`` event, ``None`` when unrecorded."""
    value = ctx.config.get(key)
    return None if value is None else float(value)


def _selected(ctx: AnalysisContext) -> Dict[str, Mapping[str, Any]]:
    """Per original kernel: the ``select`` event's τ, flags and D's."""
    return {
        e.subject: e.detail_map
        for e in ctx.plan.provenance
        if e.stage == prov.STAGE_SELECT
    }


def _lane_bandwidth(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    b = ctx.bounds
    evidence = {
        "bus_bytes": b.bus_bytes,
        "bus_bound_s": b.bus_bound_s,
        "computation_s": b.computation_s,
        "max_link_bound_s": b.max_link_bound_s,
    }
    comm_bound = (
        b.computation_s > 0 and b.bus_bound_s > b.computation_s
    )
    yield Diagnostic(
        rule="P001",
        severity=Severity.WARNING if comm_bound else Severity.INFO,
        path="lanes.bus",
        message=(
            f"bus must move {b.bus_bytes} B; serializing the data cycles "
            f"alone takes {b.bus_bound_s * 1e3:.3f} ms "
            + (
                f"— more than the {b.computation_s * 1e3:.3f} ms of "
                "computation, so the proposed system stays "
                "communication-bound"
                if comm_bound
                else f"(computation: {b.computation_s * 1e3:.3f} ms)"
            )
        ),
        evidence=evidence,
        suggestion=(
            "move more kernel edges off the bus (sharing/NoC) or reduce "
            "host I/O" if comm_bound else None
        ),
    )
    for link in sorted(b.link_loads):
        load = b.link_loads[link]
        bound = b.link_bounds_s[link]
        hot = b.computation_s > 0 and bound > b.computation_s
        yield Diagnostic(
            rule="P001",
            severity=Severity.WARNING if hot else Severity.HINT,
            path=f"lanes.{link_name(link)}",
            message=(
                f"link {link_name(link)} carries {load} B planned load; "
                f"serialization needs at least {bound * 1e6:.1f} us"
                + (" — more than the whole computation phase" if hot else "")
            ),
            evidence={
                "link": link_name(link),
                "load_bytes": load,
                "bound_s": bound,
                "computation_s": b.computation_s,
            },
        )


def _sharing_provisioning(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    seen: Set[str] = set()
    for link in ctx.plan.sharing:
        path = f"sharing.{link.producer}->{link.consumer}"
        d_ij = graph.edge_bytes(link.producer, link.consumer)
        if d_ij <= 0:
            yield Diagnostic(
                rule="P002", severity=Severity.ERROR, path=path,
                message=(
                    f"shared memory on {link.producer}->{link.consumer} "
                    "but the graph carries no such edge"
                ),
                evidence={"bytes": link.bytes, "graph_bytes": d_ij},
            )
            continue
        if link.bytes != d_ij:
            yield Diagnostic(
                rule="P002", severity=Severity.ERROR, path=path,
                message=(
                    f"sharing link records {link.bytes} B but the graph "
                    f"edge carries {d_ij} B"
                ),
                evidence={"bytes": link.bytes, "graph_bytes": d_ij},
            )
        d_out = graph.d_k_out(link.producer)
        d_in = graph.d_k_in(link.consumer)
        if d_out != d_ij or d_in != d_ij:
            yield Diagnostic(
                rule="P002", severity=Severity.ERROR, path=path,
                message=(
                    "pair is not exclusive: the paper requires "
                    f"D^K_out(producer) = D^K_in(consumer) = D_ij, got "
                    f"{d_out} B / {d_in} B / {d_ij} B"
                ),
                evidence={"d_k_out": d_out, "d_k_in": d_in, "d_ij": d_ij},
                suggestion="carry the edge on the NoC instead",
            )
        host = graph.d_h_in(link.consumer) + graph.d_h_out(link.consumer)
        if link.crossbar != (host > 0):
            what = "missing" if host > 0 else "superfluous"
            yield Diagnostic(
                rule="P002", severity=Severity.ERROR, path=path,
                message=(
                    f"{what} crossbar: consumer host traffic is {host} B "
                    f"but crossbar={link.crossbar} — the host must reach a "
                    "shared memory through a crossbar, and only then"
                ),
                evidence={"crossbar": link.crossbar,
                          "consumer_host_bytes": host},
            )
        for k in (link.producer, link.consumer):
            if k in seen:
                yield Diagnostic(
                    rule="P002", severity=Severity.ERROR, path=path,
                    message=(
                        f"kernel {k!r} participates in more than one "
                        "sharing pair; a local memory can be shared with "
                        "at most one partner"
                    ),
                    evidence={"kernel": k},
                )
            seen.add(k)


def _derive_classes(
    ctx: AnalysisContext, name: str
) -> Tuple[ReceiveClass, SendClass]:
    """Re-derive ``{R,S}`` on the residual graph without topology.py."""
    from_kernels = ctx.residual.d_k_in(name) > 0
    from_host = ctx.residual.d_h_in(name) > 0
    if from_kernels and from_host:
        receive = ReceiveClass.R3
    elif from_kernels:
        receive = ReceiveClass.R1
    else:
        receive = ReceiveClass.R2
    to_kernels = ctx.residual.d_k_out(name) > 0
    to_host = ctx.residual.d_h_out(name) > 0
    if to_kernels and to_host:
        send = SendClass.S3
    elif to_kernels:
        send = SendClass.S1
    else:
        send = SendClass.S2
    return receive, send


def _derive_attach(
    receive: ReceiveClass, send: SendClass
) -> Tuple[KernelAttach, MemoryAttach]:
    """Table I from its three stated principles, not from the table."""
    kernel = (
        KernelAttach.K2
        if send in (SendClass.S1, SendClass.S3)
        else KernelAttach.K1
    )
    mem_noc = receive in (ReceiveClass.R1, ReceiveClass.R3)
    mem_bus = receive in (ReceiveClass.R2, ReceiveClass.R3) or send in (
        SendClass.S2, SendClass.S3,
    )
    if mem_noc and mem_bus:
        memory = MemoryAttach.M3
    elif mem_noc:
        memory = MemoryAttach.M2
    else:
        memory = MemoryAttach.M1
    return kernel, memory


def _mapping_consistency(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    plan = ctx.plan
    names = set(ctx.graph.kernel_names())
    if set(plan.mappings) != names:
        missing = sorted(names - set(plan.mappings))
        extra = sorted(set(plan.mappings) - names)
        yield Diagnostic(
            rule="P003", severity=Severity.ERROR, path="mappings",
            message=(
                "mappings do not cover exactly the plan's kernels "
                f"(missing {missing}, extra {extra})"
            ),
            evidence={"missing": missing, "extra": extra},
        )
    strict = (
        bool(ctx.config)
        and ctx.toggle("enable_noc")
        and ctx.toggle("enable_adaptive_mapping")
    )
    for name in sorted(set(plan.mappings) & names):
        m = plan.mappings[name]
        path = f"mappings.{name}"
        attach = (m.attach_kernel, m.attach_memory)
        if attach == (KernelAttach.K1, MemoryAttach.M2):
            yield Diagnostic(
                rule="P003", severity=Severity.ERROR, path=path,
                message=(
                    "infeasible {K1,M2} attachment: the kernel's result "
                    "would be unreachable from outside the NoC"
                ),
                evidence={"attach": [a.name for a in attach]},
            )
            continue
        receive, send = _derive_classes(ctx, name)
        if m.receive is not receive or m.send is not send:
            yield Diagnostic(
                rule="P003", severity=Severity.ERROR, path=path,
                message=(
                    f"classes {{{m.receive.name},{m.send.name}}} but the "
                    f"residual graph gives {{{receive.name},{send.name}}}"
                ),
                evidence={"plan": [m.receive.name, m.send.name],
                          "derived": [receive.name, send.name]},
            )
            continue
        if strict:
            expected = _derive_attach(receive, send)
            if attach != expected:
                yield Diagnostic(
                    rule="P003", severity=Severity.ERROR, path=path,
                    message=(
                        "Table I gives "
                        f"{{{expected[0].name},{expected[1].name}}} for "
                        f"{{{receive.name},{send.name}}}, plan has "
                        f"{{{attach[0].name},{attach[1].name}}}"
                    ),
                    evidence={
                        "classes": [receive.name, send.name],
                        "expected": [a.name for a in expected],
                        "plan": [a.name for a in attach],
                    },
                )
    if plan.noc is not None:
        for p, c, _b in plan.noc.edges:
            # An unmapped endpoint is already reported above (or, when
            # it is not a kernel at all, as a phantom flow by P006).
            if p not in plan.mappings or c not in plan.mappings:
                continue
            for kernel, ok, need in (
                (p, plan.mappings[p].on_noc, "a NoC port (K2)"),
                (c, plan.mappings[c].memory_on_noc,
                 "its memory on the NoC (M2/M3)"),
            ):
                if not ok:
                    yield Diagnostic(
                        rule="P003", severity=Severity.ERROR,
                        path=f"noc.edges.{p}->{c}",
                        message=(
                            f"NoC carries {p}->{c} but {kernel!r} lacks "
                            f"{need}; the flow has no physical path"
                        ),
                        evidence={"producer": p, "consumer": c,
                                  "kernel": kernel},
                    )


def _duplication_gating(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    plan, graph = ctx.plan, ctx.graph
    names = set(graph.kernel_names())
    selected = _selected(ctx)
    overhead = _config_float(ctx, "stream_overhead_s")
    for d in plan.duplications:
        path = f"duplications.{d.kernel}"
        spec = selected.get(d.kernel)
        delta = d.delta_dp_seconds
        if spec is not None and overhead is not None:
            # Δ_dp = τ/2 − O, with τ of the kernel before duplication.
            tau = KERNEL_CLOCK.cycles_to_seconds(spec["tau_cycles"])
            delta = tau / 2.0 - overhead
            if not _close(delta, d.delta_dp_seconds):
                yield _error(
                    "P004", path,
                    f"recorded Δ_dp={d.delta_dp_seconds!r} s but τ/2 − O "
                    f"gives {delta!r} s",
                    recorded_s=d.delta_dp_seconds, derived_s=delta,
                )
        if not d.applied:
            yield Diagnostic(
                rule="P004", severity=Severity.INFO, path=path,
                message=(
                    f"duplication of {d.kernel!r} declined "
                    f"(Δ_dp={d.slack_us:+.2f} us): {d.reason}"
                ),
                evidence={"kernel": d.kernel,
                          "delta_dp_seconds": d.delta_dp_seconds,
                          "reason": d.reason},
            )
            continue
        if delta <= 0:
            yield _error(
                "P004", path,
                f"duplicated {d.kernel!r} with non-positive "
                f"Δ_dp={delta * 1e6:+.2f} us; the paper duplicates only "
                "when τ/2 − O > 0",
                kernel=d.kernel, delta_dp_seconds=delta,
            )
        if spec is not None and not spec["parallelizable"]:
            yield _error(
                "P004", path,
                f"duplicated {d.kernel!r}, which is not parallelizable",
                kernel=d.kernel,
            )
        copies = [d.kernel + sfx for sfx in _COPY_SUFFIXES]
        if d.kernel in names or not all(c in names for c in copies):
            yield _error(
                "P004", path,
                f"duplication of {d.kernel!r} applied but the graph does "
                f"not hold its copies {copies} in its place",
                kernel=d.kernel, copies=copies,
            )
    applied = [d.kernel for d in plan.duplications if d.applied]
    budget = ctx.config.get("max_duplications")
    if budget is not None and len(applied) > int(budget):
        yield _error("P004", "duplications",
                     f"{len(applied)} duplications applied, budget {budget}",
                     applied=applied, max_duplications=budget)
    if selected:
        # Duplication splits work and data across the copies; it must
        # conserve Σ τ and every byte, host flows included.
        for what, key, after in (
            ("Σ τ (cycles)", "tau_cycles",
             sum(graph.kernel(k).tau_cycles for k in graph.kernel_names())),
            ("kernel-to-kernel bytes", "d_k_out",
             sum(graph.kk_edges.values())),
            ("host input bytes", "d_h_in", sum(graph.host_in.values())),
            ("host output bytes", "d_h_out", sum(graph.host_out.values())),
        ):
            before = sum(s[key] for s in selected.values())
            if not _close(before, after):
                yield _error(
                    "P004", "duplications",
                    f"{what} changed from {before} before duplication to "
                    f"{after} in the plan graph",
                    quantity=what, before=before, after=after,
                )
    cap = float(ctx.config.get("utilization_cap", 0.85))
    cost = PLATFORM_BASE + component_cost(ComponentKind.BUS)
    for name in ctx.graph.kernel_names():
        cost = cost + ctx.graph.kernel(name).resources
    device = XC5VFX130T
    if not device.fits(cost, cap):
        yield Diagnostic(
            rule="P004", severity=Severity.ERROR, path="resources",
            message=(
                f"committed kernel cores need {cost.luts} LUTs / "
                f"{cost.regs} regs — beyond {cap:.0%} of {device.name}"
            ),
            evidence={"luts": cost.luts, "regs": cost.regs,
                      "utilization_cap": cap, "device": device.name},
            suggestion="drop a duplication or raise the utilization cap",
        )
    else:
        yield Diagnostic(
            rule="P004", severity=Severity.HINT, path="resources",
            message=(
                f"kernel cores commit {cost.luts} LUTs / {cost.regs} regs "
                f"({device.utilization(cost):.0%} of {device.name})"
            ),
            evidence={"luts": cost.luts, "regs": cost.regs,
                      "utilization": device.utilization(cost),
                      "device": device.name},
        )


def _placement_quality(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    report = ctx.bounds.noc_report
    if report is None or report.total_flow_bytes == 0:
        return
    placement = ctx.plan.noc.placement if ctx.plan.noc is not None else None
    efficiency = report.total_flow_bytes / report.byte_hops
    evidence = {
        "byte_hops": report.byte_hops,
        "total_flow_bytes": report.total_flow_bytes,
        "average_hops": report.average_hops,
        "efficiency": efficiency,
    }
    if efficiency < 0.5:
        yield Diagnostic(
            rule="P005", severity=Severity.HINT, path="noc.placement",
            message=(
                f"placement averages {report.average_hops:.2f} hops per "
                "byte — more than double the 1-hop lower bound; a better "
                "placement could cut NoC occupancy "
                f"({report.byte_hops} byte-hops for "
                f"{report.total_flow_bytes} flow bytes)"
            ),
            evidence=evidence,
            suggestion="co-locate heavy producer/consumer pairs",
        )
    else:
        dims = (
            f"{placement.width}x{placement.height}"
            if placement is not None else "?"
        )
        yield Diagnostic(
            rule="P005", severity=Severity.INFO, path="noc.placement",
            message=(
                f"placement on the {dims} grid averages "
                f"{report.average_hops:.2f} hops per byte "
                f"({report.byte_hops} byte-hops, lower bound "
                f"{report.total_flow_bytes})"
            ),
            evidence=evidence,
        )


def _edge_coverage(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    plan = ctx.plan
    sm = {(l.producer, l.consumer) for l in plan.sharing}
    noc = (
        {(p, c) for p, c, _ in plan.noc.edges}
        if plan.noc is not None else set()
    )
    for p, c in sorted(sm & noc):
        yield Diagnostic(
            rule="P006", severity=Severity.ERROR, path=f"edges.{p}->{c}",
            message=(
                f"edge {p}->{c} is carried by both a shared memory and "
                "the NoC; the interconnect would move the data twice"
            ),
            evidence={"producer": p, "consumer": c},
        )
    for p, c in sorted((sm | noc) - set(plan.graph.kk_edges)):
        yield Diagnostic(
            rule="P006", severity=Severity.ERROR, path=f"edges.{p}->{c}",
            message=(
                f"interconnect carries {p}->{c} but the graph has no "
                "such edge (phantom flow)"
            ),
            evidence={"producer": p, "consumer": c},
        )
    if plan.noc is not None:
        for p, c, b in plan.noc.edges:
            graph_b = plan.graph.edge_bytes(p, c)
            if graph_b != b and (p, c) in plan.graph.kk_edges:
                yield Diagnostic(
                    rule="P006", severity=Severity.ERROR,
                    path=f"noc.edges.{p}->{c}",
                    message=(
                        f"NoC records {b} B for {p}->{c}, the graph "
                        f"carries {graph_b} B"
                    ),
                    evidence={"noc_bytes": b, "graph_bytes": graph_b},
                )
    relays = relay_edges(plan)
    noc_enabled = ctx.toggle("enable_noc")
    severity = (
        Severity.ERROR
        if relays and bool(ctx.config) and noc_enabled
        else Severity.WARNING
    )
    for p, c, b in relays:
        yield Diagnostic(
            rule="P006", severity=severity, path=f"edges.{p}->{c}",
            message=(
                f"kernel edge {p}->{c} ({b} B) rides on neither a shared "
                "memory nor the NoC; it is relayed through the host over "
                "the bus, twice"
            ),
            evidence={"producer": p, "consumer": c, "bytes": b,
                      "noc_enabled": noc_enabled},
            suggestion=(
                "enable the NoC or sharing stage so the custom "
                "interconnect carries the edge"
            ),
        )


def _pipeline_gating(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    names = set(graph.kernel_names())
    theta = _config_float(ctx, "theta_s_per_byte")
    overhead = _config_float(ctx, "stream_overhead_s")
    for d in ctx.plan.pipeline:
        edge = f"->{d.consumer}" if d.consumer else ""
        path = f"pipeline.{d.kernel}{edge}"
        unknown = [k for k in (d.kernel, d.consumer) if k and k not in names]
        if unknown:
            yield _error(
                "P007", path,
                f"pipeline decision names unknown kernel(s) {unknown}",
                unknown=unknown,
            )
            continue
        spec = graph.kernel(d.kernel)
        tau = KERNEL_CLOCK.cycles_to_seconds(spec.tau_cycles)
        derived: Optional[float] = None
        if d.consumer is None:
            # Case 1: Δ_p1 = min(D^H_in·θ, τ)/2 + min(D^H_out·θ, τ)/2 − O
            formula, streams = "Δ_p1", spec.streams_host_io
            if theta is not None and overhead is not None:
                derived = (
                    min(graph.d_h_in(d.kernel) * theta, tau) / 2.0
                    + min(graph.d_h_out(d.kernel) * theta, tau) / 2.0
                    - overhead
                )
        else:
            # Case 2: Δ_p2 = min(τ_i, τ_j)/2 − O.
            consumer = graph.kernel(d.consumer)
            formula, streams = "Δ_p2", consumer.streams_kernel_input
            if overhead is not None:
                tau_j = KERNEL_CLOCK.cycles_to_seconds(consumer.tau_cycles)
                derived = min(tau, tau_j) / 2.0 - overhead
        if derived is not None and not _close(derived, d.delta_seconds):
            yield _error(
                "P007", path,
                f"recorded {formula}={d.delta_seconds!r} s but the formula "
                f"gives {derived!r} s",
                recorded_s=d.delta_seconds, derived_s=derived,
            )
        delta = d.delta_seconds if derived is None else derived
        if d.applied and not (streams and delta > 0):
            yield _error(
                "P007", path,
                f"pipelining applied with streaming={streams} and "
                f"{formula}={delta * 1e6:+.2f} us; the paper pipelines only a "
                "streaming-capable kernel with a positive gain",
                streams=streams, delta_s=delta,
            )


def _provenance_consistency(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    plan = ctx.plan
    if not plan.provenance:
        return
    placed = {
        (e.subject, (e.detail_map.get("x"), e.detail_map.get("y")))
        for e in plan.provenance
        if e.stage == prov.STAGE_PLACEMENT and e.outcome == "placed"
    }
    positions = (
        set(plan.noc.placement.positions.items()) if plan.noc else set()
    )
    if placed != positions:
        nodes = sorted({node for node, _ in placed ^ positions})
        yield _error("P008", "provenance.placement",
                     f"placement events disagree with the plan at {nodes}",
                     nodes=nodes)
    logged = [
        (e.subject, e.outcome == "applied")
        for e in plan.provenance
        if e.stage == prov.STAGE_PIPELINE
        and e.outcome in ("applied", "rejected")
    ]
    planned = [
        (d.kernel + (f"->{d.consumer}" if d.consumer else ""), d.applied)
        for d in plan.pipeline
    ]
    if logged != planned:
        yield _error(
            "P008", "provenance.pipeline",
            f"{len(logged)} pipeline events do not replay the plan's "
            f"{len(planned)} pipeline decisions",
            logged=len(logged), planned=len(planned),
        )


def _placement_shape(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    plan = ctx.plan
    if plan.noc is None:
        return
    placement = plan.noc.placement
    attached = {m.kernel for m in plan.mappings.values() if m.on_noc} | {
        memory_node(m.kernel)
        for m in plan.mappings.values() if m.memory_on_noc
    }
    placed = set(placement.positions)
    if placed != attached:
        unplaced = sorted(attached - placed)
        unattached = sorted(placed - attached)
        yield _error(
            "P009", "noc.placement",
            "placed nodes differ from the NoC-attached kernels and memories "
            f"(unplaced {unplaced}, unattached {unattached})",
            unplaced=unplaced, unattached=unattached,
        )
    n = len(attached)
    if n:
        # The smallest near-square mesh: as many rows as fit in a
        # square, then as few columns as hold every node.
        height = max(h for h in range(1, n + 1) if h * h <= n)
        width = -(-n // height)
        if (placement.width, placement.height) != (width, height):
            yield _error(
                "P009", "noc.placement",
                f"mesh is {placement.width}x{placement.height}, the smallest "
                f"near-square for {n} nodes is {width}x{height}",
                nodes=n, width=placement.width, height=placement.height,
            )
    topology = ctx.config.get("noc_topology")
    if topology is not None and placement.torus != (topology == "torus"):
        yield _error(
            "P009", "noc.placement",
            f"placement has torus={placement.torus} but the design ran with "
            f"topology {topology!r}",
            torus=placement.torus, topology=topology,
        )


def _wrap(fn: Callable[[AnalysisContext], Iterator[Diagnostic]]) -> RuleFn:
    def run(ctx: AnalysisContext) -> List[Diagnostic]:
        return list(fn(ctx))
    return run


RULES = (
    Rule(
        id="P001", name="lane-bandwidth", family="plan",
        max_severity=Severity.WARNING,
        description="static serialization bounds per bus/NoC lane",
        fn=_wrap(_lane_bandwidth),
    ),
    Rule(
        id="P002", name="sharing-provisioning", family="plan",
        max_severity=Severity.ERROR,
        description="shared memories satisfy the exclusivity/crossbar rules",
        fn=_wrap(_sharing_provisioning),
    ),
    Rule(
        id="P003", name="mapping-consistency", family="plan",
        max_severity=Severity.ERROR,
        description="Table I re-derived from first principles",
        fn=_wrap(_mapping_consistency),
    ),
    Rule(
        id="P004", name="duplication-gating", family="plan",
        max_severity=Severity.ERROR,
        description="duplication Δ_dp gating and device resource budget",
        fn=_wrap(_duplication_gating),
    ),
    Rule(
        id="P005", name="placement-quality", family="plan",
        max_severity=Severity.INFO,
        description="byte-hop cost of the mesh placement vs lower bound",
        fn=_wrap(_placement_quality),
    ),
    Rule(
        id="P006", name="edge-coverage", family="plan",
        max_severity=Severity.ERROR,
        description="SM and NoC edges partition the kernel edges exactly",
        fn=_wrap(_edge_coverage),
    ),
    Rule(
        id="P007", name="pipeline-gating", family="plan",
        max_severity=Severity.ERROR,
        description="Δ_p1/Δ_p2 re-derived and their streaming gates",
        fn=_wrap(_pipeline_gating),
    ),
    Rule(
        id="P008", name="provenance-consistency", family="plan",
        max_severity=Severity.ERROR,
        description="placement and pipeline events replay the plan",
        fn=_wrap(_provenance_consistency),
    ),
    Rule(
        id="P009", name="placement-shape", family="plan",
        max_severity=Severity.ERROR,
        description="placed nodes, near-square mesh size and topology",
        fn=_wrap(_placement_shape),
    ),
)
