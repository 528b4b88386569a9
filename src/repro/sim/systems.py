"""System builders: execute an application on each system variant.

Three variants mirror the paper's evaluation:

* :func:`simulate_software` — everything on the host (the vs-SW
  reference; trivially additive, no DES needed);
* :func:`simulate_baseline` — the bus-based accelerator: for each kernel
  in invocation order, fetch *all* input over the bus, compute, send all
  output back (Section III-A's model);
* :func:`simulate_proposed` — the designed system: host traffic on the
  bus, kernel-to-kernel traffic over shared memories (zero copies) and
  the NoC (overlapped with computation), duplication and pipelining
  realized as concurrent processes.

Cycles in the communication graph (e.g. the fluid solver's feedback
edges) are handled the way the application actually behaves: an edge
pointing backwards in invocation order carries *next-iteration* data, so
the consumer does not block on it within the simulated iteration — but
the transfer still happens and still occupies the interconnect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.commgraph import CommGraph
from ..core.parallel import PipelineCase
from ..core.plan import InterconnectPlan, memory_node
from ..errors import SimulationError
from ..units import speedup
from .bus import PlbBus
from .dma import DmaEngine
from .engine import Engine, Event
from .hwkernel import HwKernelSim
from .noc.mesh import NocMesh, NocParams


@dataclass(frozen=True, slots=True)
class SystemParams:
    """Hardware parameters shared by all simulated variants."""

    bus_width_bytes: int = 8
    bus_arbitration_cycles: int = 3
    bus_address_cycles: int = 2
    bus_burst_bytes: int = 1024
    dma_setup_cycles: int = 40
    noc_link_width_bytes: int = 4
    noc_hop_latency_cycles: int = 3
    noc_max_packet_bytes: int = 4096
    #: Configure WRR link weights from the plan's flows (QoS mode).
    noc_qos: bool = False
    #: NoC switching: "store_forward" or "wormhole" (mesh only).
    noc_transport: str = "store_forward"

    def make_bus(self, engine: Engine) -> PlbBus:
        """Instantiate the system bus."""
        return PlbBus(
            engine,
            width_bytes=self.bus_width_bytes,
            arbitration_cycles=self.bus_arbitration_cycles,
            address_cycles=self.bus_address_cycles,
            typical_burst_bytes=self.bus_burst_bytes,
        )

    def theta_s_per_byte(self) -> float:
        """The ``θ`` this hardware exhibits (for the design algorithm)."""
        return self.make_bus(Engine()).theta_s_per_byte

    def make_noc(
        self, engine: Engine, width: int, height: int, topology: str = "mesh"
    ) -> NocMesh:
        """Instantiate a mesh/torus NoC of the given dimensions."""
        return NocMesh(
            engine,
            NocParams(
                width=width,
                height=height,
                link_width_bytes=self.noc_link_width_bytes,
                hop_latency_cycles=self.noc_hop_latency_cycles,
                max_packet_bytes=self.noc_max_packet_bytes,
                topology=topology,
                transport=self.noc_transport,
            ),
        )


@dataclass(frozen=True)
class SimulatedTimes:
    """Measured execution summary of one simulated system."""

    label: str
    #: Makespan of the kernel phase (fetch → compute → write-back).
    kernels_s: float
    host_other_s: float
    #: Total computation demand (Σ τ) for the comm/comp split.
    computation_s: float
    #: Time the bus was busy during the run.
    bus_busy_s: float
    #: Bytes delivered by the NoC (0 when there is none).
    noc_bytes: int = 0
    extras: Dict[str, float] = field(default_factory=dict)
    #: Per-kernel computation spans ``{name: (start_s, end_s)}`` — the
    #: raw material for timeline/Gantt rendering.
    kernel_spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def application_s(self) -> float:
        """Overall application time (host parts + kernel phase)."""
        return self.host_other_s + self.kernels_s

    @property
    def communication_s(self) -> float:
        """Non-computation share of the kernel phase (≥ 0)."""
        return max(self.kernels_s - self.computation_s, 0.0)

    def speedup_over(self, other: "SimulatedTimes") -> Tuple[float, float]:
        """(application, kernels) speed-up of *this* system vs ``other``."""
        return (
            speedup(other.application_s, self.application_s),
            speedup(other.kernels_s, self.kernels_s),
        )


def _attach_recorder(
    recorder,
    bus: Optional[PlbBus] = None,
    dma: Optional[DmaEngine] = None,
    noc: Optional[NocMesh] = None,
    sims=(),
) -> None:
    """Point a system's components at a profiling recorder.

    No-op for ``None`` or a disabled recorder so the simulators stay
    zero-cost by default. Arbitration-level hooks (bus grants, NoC link
    waits) go through the duck-typed attributes on the engine's
    :class:`~repro.sim.engine.Resource` instances; the lane and wait
    kind set here are what the profiler's timeseries and critical path
    report.
    """
    if recorder is None or not recorder.enabled:
        return
    if bus is not None:
        bus.recorder = recorder
        bus._resource.recorder = recorder
        bus._resource.profile_lane = bus.name
        bus._resource.wait_kind = "bus_wait"
    if dma is not None:
        dma.recorder = recorder
    if noc is not None:
        noc.recorder = recorder
        for (src, dst), link in noc.links.items():
            link.arbiter.recorder = recorder
            link.arbiter.profile_lane = f"noc{src}->{dst}"
            link.arbiter.wait_kind = "noc_wait"
    for sim in sims:
        sim.recorder = recorder


def simulate_software(graph: CommGraph, host_other_s: float) -> SimulatedTimes:
    """All-software execution: purely additive on the host."""
    sw = sum(graph.kernel(k).sw_seconds for k in graph.kernel_names())
    return SimulatedTimes(
        label="software",
        kernels_s=sw,
        host_other_s=host_other_s,
        computation_s=sw,
        bus_busy_s=0.0,
    )


def simulate_baseline(
    graph: CommGraph,
    host_other_s: float,
    params: SystemParams = SystemParams(),
    recorder=None,
) -> SimulatedTimes:
    """The conventional bus-based accelerator (Section III-A).

    ``recorder`` (a :class:`repro.obs.profile.TimeseriesRecorder`) turns
    on simulation-time profiling; deliveries are recorded host-mediated
    (``host→k`` of ``D_in``, ``k→host`` of ``D_out``) because every byte
    crosses the bus through the host in this system.
    """
    engine = Engine()
    bus = params.make_bus(engine)
    dma = DmaEngine(engine, bus, setup_cycles=params.dma_setup_cycles)
    _attach_recorder(recorder, bus=bus, dma=dma)

    spans: Dict[str, Tuple[float, float]] = {}

    def main():
        for name in graph.invocation_order():
            sim = HwKernelSim(engine, graph.kernel(name))
            if recorder is not None:
                sim.recorder = recorder
            yield from dma.transfer(graph.d_in(name), requester=f"{name}.in")
            if recorder is not None:
                recorder.delivery(
                    engine.now, "host", name, graph.d_in(name), "bus"
                )
            yield from sim.compute()
            sim.outputs_done.succeed()
            yield from dma.transfer(graph.d_out(name), requester=f"{name}.out")
            if recorder is not None:
                recorder.delivery(
                    engine.now, name, "host", graph.d_out(name), "bus"
                )
            spans[name] = (sim.started_at, sim.finished_at)

    engine.process(main(), name="baseline")
    makespan = engine.run()
    comp = sum(graph.kernel(k).tau_seconds for k in graph.kernel_names())
    return SimulatedTimes(
        label="baseline",
        kernels_s=makespan,
        host_other_s=host_other_s,
        computation_s=comp,
        bus_busy_s=bus._resource.busy_time,
        kernel_spans=spans,
        extras={"bus_bytes": float(bus.bytes_moved)},
    )


def simulate_pipelined_baseline(
    graph: CommGraph,
    host_other_s: float,
    params: SystemParams = SystemParams(),
    recorder=None,
) -> SimulatedTimes:
    """A smarter bus-only baseline: double-buffered input fetch.

    Section III-A notes "the fetching phase can be done in pipeline with
    the computation phase" but adopts the sequential model as the
    general baseline. This variant quantifies that choice: kernel
    ``i+1``'s input is fetched over the bus while kernel ``i`` computes
    (output write-back still serializes, as both contend for the same
    local-memory port and bus). The ablation bench compares it against
    both the paper's baseline and the proposed system.
    """
    engine = Engine()
    bus = params.make_bus(engine)
    dma = DmaEngine(engine, bus, setup_cycles=params.dma_setup_cycles)

    order = graph.invocation_order()
    sims = {name: HwKernelSim(engine, graph.kernel(name)) for name in order}
    _attach_recorder(recorder, bus=bus, dma=dma, sims=sims.values())
    fetched = {name: engine.event() for name in order}
    spans: Dict[str, Tuple[float, float]] = {}

    def prefetcher():
        # Fetch inputs in invocation order, ahead of the compute chain.
        for name in order:
            yield from dma.transfer(graph.d_in(name), requester=f"{name}.in")
            if recorder is not None:
                recorder.delivery(
                    engine.now, "host", name, graph.d_in(name), "bus"
                )
            fetched[name].succeed()

    def executor():
        for name in order:
            sim = sims[name]
            yield fetched[name]
            yield from sim.compute()
            sim.outputs_done.succeed()
            yield from dma.transfer(graph.d_out(name), requester=f"{name}.out")
            if recorder is not None:
                recorder.delivery(
                    engine.now, name, "host", graph.d_out(name), "bus"
                )
            spans[name] = (sim.started_at, sim.finished_at)

    engine.process(prefetcher(), name="prefetch")
    engine.process(executor(), name="execute")
    makespan = engine.run()
    comp = sum(graph.kernel(k).tau_seconds for k in graph.kernel_names())
    return SimulatedTimes(
        label="pipelined_baseline",
        kernels_s=makespan,
        host_other_s=host_other_s,
        computation_s=comp,
        bus_busy_s=bus._resource.busy_time,
        kernel_spans=spans,
        extras={"bus_bytes": float(bus.bytes_moved)},
    )


def _split(nbytes: int) -> Tuple[int, int]:
    half = nbytes // 2
    return half, nbytes - half


def simulate_proposed(
    plan: InterconnectPlan,
    host_other_s: float,
    params: SystemParams = SystemParams(),
    components_out: Optional[Dict[str, object]] = None,
    recorder=None,
) -> SimulatedTimes:
    """Execute the designed system as a concurrent process network.

    ``components_out``, when given, receives the live ``"bus"``,
    ``"noc"``, ``"dma"`` and ``"engine"`` component instances after the
    run, so callers (e.g. the statistics collector) can read their exact
    counters.

    ``recorder`` turns on simulation-time profiling: components emit
    activity/occupancy samples and every kernel→kernel or host↔kernel
    payload is recorded as a *direct* delivery on the channel it used
    (``sm``, ``noc`` or ``bus``), which the profiler diffs against the
    plan's graph for byte conservation.
    """
    graph = plan.graph
    engine = Engine()
    bus = params.make_bus(engine)
    dma = DmaEngine(engine, bus, setup_cycles=params.dma_setup_cycles)

    noc: Optional[NocMesh] = None
    coords: Dict[str, Tuple[int, int]] = {}
    if plan.noc is not None:
        placement = plan.noc.placement
        noc = params.make_noc(
            engine,
            placement.width,
            placement.height,
            topology="torus" if placement.torus else "mesh",
        )
        coords = dict(placement.positions)
        if params.noc_qos:
            from .noc.qos import apply_qos_weights

            apply_qos_weights(noc, plan)

    # --- classify edges -------------------------------------------------
    sm_edges = {(l.producer, l.consumer) for l in plan.sharing}
    noc_edges = (
        {(p, c) for p, c, _ in plan.noc.edges} if plan.noc is not None else set()
    )
    all_edges = list(graph.kk_edges)
    relay_edges = [e for e in all_edges if e not in sm_edges and e not in noc_edges]

    order = graph.invocation_order()
    pos = {name: i for i, name in enumerate(order)}

    case1 = {
        d.kernel
        for d in plan.pipeline
        if d.applied and d.case is PipelineCase.HOST_STREAM
    }
    case2 = {
        (d.kernel, d.consumer)
        for d in plan.pipeline
        if d.applied and d.case is PipelineCase.KERNEL_STREAM
    }

    sims = {name: HwKernelSim(engine, graph.kernel(name)) for name in order}
    _attach_recorder(recorder, bus=bus, dma=dma, noc=noc, sims=sims.values())
    first_arrive: Dict[Tuple[str, str], Event] = {}
    second_arrive: Dict[Tuple[str, str], Event] = {}
    for e in all_edges:
        first_arrive[e] = engine.event()
        second_arrive[e] = engine.event()

    # --- per-edge sender processes ---------------------------------------
    def sender(p: str, c: str, nbytes: int, kind: str):
        sim = sims[p]
        streamed = (p, c) in case2 and kind in ("sm", "noc")
        rec = recorder
        if kind == "sm":
            # Shared local memory: the consumer reads in place, so the
            # "delivery" is instantaneous at the producer's commit point.
            if streamed:
                h1, h2 = _split(nbytes)
                yield sim.compute_half
                if rec is not None:
                    rec.delivery(engine.now, p, c, h1, "sm")
                first_arrive[(p, c)].succeed()
                yield sim.compute_done
                if rec is not None:
                    rec.delivery(engine.now, p, c, h2, "sm")
                second_arrive[(p, c)].succeed()
            else:
                yield sim.compute_done
                if rec is not None:
                    rec.delivery(engine.now, p, c, nbytes, "sm")
                first_arrive[(p, c)].succeed()
                second_arrive[(p, c)].succeed()
        elif kind == "noc":
            assert noc is not None
            src = coords[p]
            dst = coords[memory_node(c)]
            flow = f"{p}->{c}"
            if streamed:
                h1, h2 = _split(nbytes)
                yield sim.compute_half
                if h1:
                    yield from noc.send(src, dst, h1, flow=flow)
                if rec is not None:
                    rec.delivery(engine.now, p, c, h1, "noc")
                first_arrive[(p, c)].succeed()
                yield sim.compute_done
                if h2:
                    yield from noc.send(src, dst, h2, flow=flow)
                if rec is not None:
                    rec.delivery(engine.now, p, c, h2, "noc")
                second_arrive[(p, c)].succeed()
            else:
                yield sim.compute_done
                yield from noc.send(src, dst, nbytes, flow=flow)
                if rec is not None:
                    rec.delivery(engine.now, p, c, nbytes, "noc")
                first_arrive[(p, c)].succeed()
                second_arrive[(p, c)].succeed()
        elif kind == "relay":
            # No custom interconnect for this edge: producer uploads to
            # the host, host re-delivers to the consumer — two bus trips.
            yield sim.compute_done
            yield from dma.transfer(nbytes, requester=f"{p}->host")
            yield from dma.transfer(nbytes, requester=f"host->{c}")
            if rec is not None:
                rec.delivery(engine.now, p, c, nbytes, "bus")
            first_arrive[(p, c)].succeed()
            second_arrive[(p, c)].succeed()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown edge kind {kind!r}")

    sender_procs = []
    for (p, c), b in graph.kk_edges.items():
        kind = "sm" if (p, c) in sm_edges else "noc" if (p, c) in noc_edges else "relay"
        sender_procs.append(
            engine.process(sender(p, c, b, kind), name=f"send:{p}->{c}")
        )

    # --- per-kernel host-output uploader ----------------------------------
    def uploader(name: str):
        sim = sims[name]
        h_out = graph.d_h_out(name)
        if h_out == 0:
            yield sim.compute_done
            return
        if name in case1:
            h1, h2 = _split(h_out)
            yield sim.compute_half
            if h1:
                yield from dma.transfer(h1, requester=f"{name}.out1")
                if recorder is not None:
                    recorder.delivery(engine.now, name, "host", h1, "bus")
            yield sim.compute_done
            if h2:
                yield from dma.transfer(h2, requester=f"{name}.out2")
                if recorder is not None:
                    recorder.delivery(engine.now, name, "host", h2, "bus")
        else:
            yield sim.compute_done
            yield from dma.transfer(h_out, requester=f"{name}.out")
            if recorder is not None:
                recorder.delivery(engine.now, name, "host", h_out, "bus")

    uploader_procs = [
        engine.process(uploader(n), name=f"upload:{n}") for n in order
    ]

    # --- per-kernel main process --------------------------------------------
    def kernel_proc(name: str):
        sim = sims[name]
        # Host input fetch (possibly streamed).
        fetch2: Optional[Event] = None
        h_in = graph.d_h_in(name)
        if h_in > 0:
            if name in case1:
                h1, h2 = _split(h_in)
                if h1:
                    yield from dma.transfer(h1, requester=f"{name}.in1")
                    if recorder is not None:
                        recorder.delivery(engine.now, "host", name, h1, "bus")
                if h2:
                    def fetch_rest(n=name, b=h2):
                        yield from dma.transfer(b, requester=f"{n}.in2")
                        if recorder is not None:
                            recorder.delivery(engine.now, "host", n, b, "bus")
                    fetch2 = engine.process(fetch_rest(), name=f"fetch2:{name}")
            else:
                yield from dma.transfer(h_in, requester=f"{name}.in")
                if recorder is not None:
                    recorder.delivery(engine.now, "host", name, h_in, "bus")
        # Wait for forward-edge inputs (first halves).
        forward_in = [
            (p, name)
            for (p, c) in all_edges
            if c == name and pos[p] < pos[name]
        ]
        firsts = [first_arrive[e] for e in forward_in]
        if firsts:
            yield firsts
        gates: List[Event] = [second_arrive[e] for e in forward_in]
        if fetch2 is not None:
            gates.append(fetch2)
        yield from sim.compute(second_half_gates=gates or None)

    kernel_procs = [
        engine.process(kernel_proc(n), name=f"kernel:{n}") for n in order
    ]

    makespan = engine.run()
    if components_out is not None:
        components_out["bus"] = bus
        components_out["dma"] = dma
        components_out["engine"] = engine
        if noc is not None:
            components_out["noc"] = noc
    comp = sum(graph.kernel(k).tau_seconds for k in order)
    return SimulatedTimes(
        label="proposed",
        kernels_s=makespan,
        host_other_s=host_other_s,
        computation_s=comp,
        bus_busy_s=bus._resource.busy_time,
        noc_bytes=noc.bytes_delivered if noc is not None else 0,
        extras={
            "bus_utilization": bus.utilization(makespan) if makespan > 0 else 0.0,
            "bus_bytes": float(bus.bytes_moved),
            "noc_byte_hops": float(
                sum(l.bytes_moved for l in noc.links.values())
            ) if noc is not None else 0.0,
        },
        kernel_spans={
            name: (sim.started_at, sim.finished_at)
            for name, sim in sims.items()
            if sim.started_at is not None and sim.finished_at is not None
        },
    )
