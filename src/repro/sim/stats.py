"""Structured statistics from simulated executions.

Collects what a performance engineer would ask of a run: per-kernel
activity, bus occupancy, per-link NoC load and the busiest link — in one
picklable report with a table renderer. The CLI's ``simulate`` command
and the examples use it; tests assert its accounting against the raw
component counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from .bus import PlbBus
from .dma import DmaEngine
from .engine import Engine
from .noc.mesh import NocMesh
from .systems import SimulatedTimes

Coord = Tuple[int, int]


@dataclass(frozen=True)
class LinkStats:
    """Traffic summary of one directed NoC link."""

    src: Coord
    dst: Coord
    bytes_moved: int
    packets: int
    utilization: float
    #: Link-width flits carried (``ceil(bytes / link_width)`` per packet).
    flits: int = 0


@dataclass(frozen=True)
class SimulationStats:
    """Aggregated statistics of one simulated run."""

    label: str
    makespan_s: float
    bus_bytes: int
    bus_transactions: int
    bus_utilization: float
    noc_bytes: int
    noc_packets: int
    links: Tuple[LinkStats, ...] = ()
    kernel_busy: Dict[str, float] = field(default_factory=dict)
    #: Bus arbitration pressure: requests that had to wait / deepest queue.
    bus_contentions: int = 0
    bus_peak_waiters: int = 0
    #: DMA descriptor high-water mark (concurrent in-flight transfers).
    dma_transfers: int = 0
    dma_peak_queue: int = 0
    #: Discrete events the engine executed for this run. Not a
    #: contract: the count fell on NoC runs when packets became
    #: callback objects (one start entry per message, no completion
    #: entry for a packet that is not the last), with every simulated
    #: time unchanged, and it may fall again.
    engine_events: int = 0
    #: Timed operations the engine fused (executed synchronously). Like
    #: ``engine_events`` this describes the engine implementation, not
    #: the simulated system, so it sits outside the conformance contract.
    engine_fused_events: int = 0

    @property
    def busiest_link(self) -> Optional[LinkStats]:
        """The link moving the most bytes (``None`` without a NoC)."""
        if not self.links:
            return None
        return max(self.links, key=lambda l: l.bytes_moved)

    @property
    def total_kernel_busy_s(self) -> float:
        """Σ of kernel active time (> makespan means real overlap)."""
        return sum(self.kernel_busy.values())

    def render(self) -> str:
        """Fixed-width textual report."""
        lines = [
            f"simulation stats [{self.label}]",
            f"  makespan          : {self.makespan_s * 1e3:.3f} ms",
            f"  bus               : {self.bus_bytes} B in "
            f"{self.bus_transactions} transactions "
            f"({self.bus_utilization:.1%} busy)",
        ]
        if self.bus_contentions:
            lines.append(
                f"  bus contention    : {self.bus_contentions} stalled "
                f"requests (peak queue {self.bus_peak_waiters})"
            )
        if self.dma_transfers:
            lines.append(
                f"  DMA               : {self.dma_transfers} transfers "
                f"(peak in flight {self.dma_peak_queue})"
            )
        if self.noc_bytes:
            lines.append(
                f"  NoC               : {self.noc_bytes} B in "
                f"{self.noc_packets} packets over {len(self.links)} used links"
            )
            busiest = self.busiest_link
            if busiest is not None:
                lines.append(
                    f"  busiest link      : {busiest.src}->{busiest.dst} "
                    f"({busiest.bytes_moved} B, {busiest.utilization:.1%} busy)"
                )
        lines.append(
            f"  kernel busy total : {self.total_kernel_busy_s * 1e3:.3f} ms "
            f"(parallelism {self.parallelism():.2f}x)"
        )
        return "\n".join(lines)

    def parallelism(self) -> float:
        """Average kernel concurrency: busy time / makespan."""
        if self.makespan_s <= 0:
            raise ConfigurationError("zero-makespan run has no parallelism")
        return self.total_kernel_busy_s / self.makespan_s


def collect_stats(
    times: SimulatedTimes,
    bus: Optional[PlbBus] = None,
    noc: Optional[NocMesh] = None,
    dma: Optional[DmaEngine] = None,
    engine: Optional[Engine] = None,
) -> SimulationStats:
    """Build a :class:`SimulationStats` from a run's artifacts.

    ``times`` alone yields the portable subset (kernel spans, bus busy
    seconds); passing the live ``bus``/``noc``/``dma``/``engine``
    components adds their exact byte/packet/per-link/contention counters.
    """
    makespan = times.kernels_s
    links: Tuple[LinkStats, ...] = ()
    noc_packets = 0
    if noc is not None:
        flit_bytes = noc.params.link_width_bytes
        links = tuple(
            LinkStats(
                src=l.src,
                dst=l.dst,
                bytes_moved=l.bytes_moved,
                packets=l.packets,
                utilization=l.utilization(makespan) if makespan > 0 else 0.0,
                flits=-(-l.bytes_moved // flit_bytes),
            )
            for l in noc.links.values()
            if l.bytes_moved > 0
        )
        noc_packets = noc.packets_delivered
    arb = bus._resource if bus is not None else None
    return SimulationStats(
        label=times.label,
        makespan_s=makespan,
        bus_bytes=bus.bytes_moved if bus is not None else 0,
        bus_transactions=bus.transactions if bus is not None else 0,
        bus_utilization=(
            bus.utilization(makespan) if bus is not None and makespan > 0 else 0.0
        ),
        noc_bytes=times.noc_bytes,
        noc_packets=noc_packets,
        links=links,
        kernel_busy={
            name: end - start
            for name, (start, end) in times.kernel_spans.items()
        },
        bus_contentions=arb.contentions if arb is not None else 0,
        bus_peak_waiters=arb.peak_waiters if arb is not None else 0,
        dma_transfers=dma.transfers if dma is not None else 0,
        dma_peak_queue=dma.peak_pending if dma is not None else 0,
        engine_events=engine.events_processed if engine is not None else 0,
        engine_fused_events=engine.fused_events if engine is not None else 0,
    )


def publish_stats(
    stats: SimulationStats, registry, system: Optional[str] = None
) -> None:
    """Push a run's counters into a metrics registry.

    ``registry`` is a :class:`repro.service.metrics.MetricsRegistry`
    (duck-typed to avoid a sim→service import edge). Every series is
    labelled with the run (``system``, default the stats label) so
    several runs can share one registry; per-link series add ``src`` /
    ``dst`` labels.
    """
    labels = {"system": system or stats.label}
    registry.incr("sim_bus_bytes", by=stats.bus_bytes, labels=labels)
    registry.incr(
        "sim_bus_transactions", by=stats.bus_transactions, labels=labels
    )
    registry.incr(
        "sim_bus_contention_stalls", by=stats.bus_contentions, labels=labels
    )
    registry.gauge("sim_bus_peak_waiters", stats.bus_peak_waiters, labels=labels)
    registry.gauge("sim_bus_utilization", stats.bus_utilization, labels=labels)
    registry.incr("sim_dma_transfers", by=stats.dma_transfers, labels=labels)
    registry.gauge("sim_dma_peak_queue", stats.dma_peak_queue, labels=labels)
    registry.incr("sim_engine_events", by=stats.engine_events, labels=labels)
    registry.incr(
        "sim_engine_fused_events", by=stats.engine_fused_events, labels=labels
    )
    registry.gauge("sim_makespan_seconds", stats.makespan_s, labels=labels)
    if stats.noc_bytes:
        registry.incr("sim_noc_bytes", by=stats.noc_bytes, labels=labels)
        registry.incr("sim_noc_packets", by=stats.noc_packets, labels=labels)
    for link in stats.links:
        link_labels = dict(labels)
        link_labels["src"] = f"{link.src[0]},{link.src[1]}"
        link_labels["dst"] = f"{link.dst[0]},{link.dst[1]}"
        registry.incr("sim_link_bytes", by=link.bytes_moved, labels=link_labels)
        registry.incr("sim_link_flits", by=link.flits, labels=link_labels)
        registry.gauge(
            "sim_link_utilization", link.utilization, labels=link_labels
        )
